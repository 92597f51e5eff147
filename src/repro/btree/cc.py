"""Page-level concurrency control for the disk-first fpB+-Tree.

Until this module, concurrent sessions in :mod:`repro.serve` interleaved at
*operation* granularity: every tree mutation ran atomically between DES
yields, so a traversal could never observe a half-applied split.  The races
that kill real B+-trees — a parent routing to a child that split while the
reader was waiting on disk, two writers racing for the same leaf, a scan
walking a sibling chain as it is rewired — were unreachable.  This module
makes them reachable, and then survivable:

* :class:`PageLatchManager` keeps a **version latch** per page: an integer
  that is *even while the page is free* and *odd while a writer holds it*,
  bumped on every release and on every unlatched structural mutation.  This
  is the classic optimistic lock coupling / seqlock protocol (FB+-tree,
  arXiv:2503.23397): readers never block writers and never take latches —
  they snapshot versions, do their (yield-spanning) work, and *validate*.
* :class:`ConcurrentTreeOps` implements lookup/scan/insert as DES process
  generators over a shared serving substrate:

  - **Optimistic reads** descend hand-over-hand: snapshot the parent's
    version, route to the child, snapshot the child, then re-validate the
    parent — any intervening split fails validation and restarts the
    descent from the root, up to ``retry_budget`` times, after which the
    reader falls back to pessimistic latch coupling (which always makes
    progress).
  - **Writes** try an optimistic fast path — descend latch-free, write-latch
    only the leaf, validate it — and escalate to **latch crabbing** (write
    latches taken root-to-leaf, ancestors released as soon as the child
    cannot split) when the leaf is split-unsafe or the retry budget runs
    out.  Every page a split touches is therefore either held by the
    crabbing writer or version-bumped through :meth:`PageLatchManager.structural`,
    so concurrent readers detect it.
  - **Scans** validate every visited leaf twice: per page while walking the
    sibling chain, and all of them together at the end, so the returned
    count corresponds to one instant of simulated time (the linearization
    point) rather than a smear across the walk.

* ``mode="coarse"`` serializes every operation behind one global latch —
  the baseline the contended-serve benchmark compares against.
* ``mode="broken"`` deliberately skips validation and applies inserts into
  the traversal's (possibly stale) leaf: the lost updates it manufactures
  are the known-bad histories :mod:`repro.verify.linearizability` must
  reject.

All latch waits are FIFO and purely DES-event-driven, so two same-seed runs
are byte-identical.  If the event queue drains while waiters are still
parked (a latch leak), the manager's deadlock watchdog — registered on
:attr:`Environment.drain_checks` — raises :class:`LatchDeadlockError`
naming every held latch, its holder, and the parked waiters, instead of
letting the simulation end in a silent hang.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional

from ..des import Environment, Event, SimulationError
from .keys import INVALID_PAGE_ID

__all__ = [
    "GLOBAL_LATCH",
    "ConcurrentTreeOps",
    "LatchDeadlockError",
    "OptimisticRetryExceeded",
    "PageLatchManager",
]

#: Pseudo page id of the tree-wide latch used by ``mode="coarse"`` (real
#: page ids are dense non-negative integers, so -1 can never collide).
GLOBAL_LATCH = -1

#: Default version wrap: even, and large enough that the ABA window (a
#: version re-reaching its old value while a reader is stalled) needs two
#: billion writes inside one traversal — unreachable in any simulated run.
DEFAULT_VERSION_WRAP = 1 << 32


class LatchDeadlockError(SimulationError):
    """The DES queue drained while latch waiters were still parked.

    Raised by the deadlock watchdog (:meth:`PageLatchManager.attach_watchdog`)
    instead of letting ``env.run()`` return with processes silently stuck.
    The message names each held latch with its holder and each parked
    waiter, which is the information needed to find the leaked release.
    """

    def __init__(self, held: dict, parked: list) -> None:
        held_desc = (
            ", ".join(f"page {pid} held by {holder!r}" for pid, holder in sorted(held.items()))
            or "none"
        )
        parked_desc = ", ".join(
            f"page {pid} <- {kind} waiter {owner!r}" for pid, owner, kind in parked
        )
        super().__init__(
            "event queue drained with latch waiters parked: "
            f"held latches: [{held_desc}]; parked waiters: [{parked_desc}]"
        )
        self.held = held
        self.parked = parked


class OptimisticRetryExceeded(RuntimeError):
    """An optimistic traversal burned its whole retry budget.

    Only raised when no pessimistic fallback is possible; the serving paths
    in :class:`ConcurrentTreeOps` fall back to latch coupling instead.
    """


class _Latch:
    """One page's version latch: seqlock counter plus a FIFO wait queue."""

    __slots__ = ("version", "holder", "waiters")

    def __init__(self) -> None:
        self.version = 0
        self.holder: Optional[str] = None
        self.waiters: deque[tuple[Event, Optional[str], str]] = deque()


class PageLatchManager:
    """Per-page version latches over one DES environment.

    ``wrap`` bounds the version counter (must be even so wraparound
    preserves the free/held parity); tests shrink it to exercise the
    wraparound path.  The manager is bound to one environment — a crash
    rebuild creates a fresh manager, and releases issued by torn-down
    generators against the old one are inert by construction (they only
    touch the dead manager's state and schedule on the dead queue).
    """

    def __init__(
        self,
        env: Environment,
        store=None,
        wrap: int = DEFAULT_VERSION_WRAP,
    ) -> None:
        if wrap < 4 or wrap % 2:
            raise ValueError(f"wrap must be an even integer >= 4, got {wrap}")
        self.env = env
        self.store = store
        self.wrap = wrap
        self._latches: dict[int, _Latch] = {}
        # Counters are only ever incremented from live traversal bodies
        # (never from ``finally`` release paths), so generator teardown
        # after a crash cannot perturb them.
        self.optimistic_reads = 0
        self.read_waits = 0
        self.write_acquires = 0
        self.write_waits = 0
        self.validation_failures = 0

    def _latch(self, pid: int) -> _Latch:
        latch = self._latches.get(pid)
        if latch is None:
            latch = self._latches[pid] = _Latch()
        return latch

    # -- optimistic read protocol ------------------------------------------

    def read_begin(self, pid: int, owner: Optional[str] = None):
        """Process generator: wait out any writer, return the even version."""
        latch = self._latch(pid)
        self.optimistic_reads += 1
        while latch.version & 1:
            event = Event(self.env)
            latch.waiters.append((event, owner, "read"))
            self.read_waits += 1
            yield event
        return latch.version

    def version(self, pid: int) -> int:
        """The page's current version (odd while write-held)."""
        return self._latch(pid).version

    def validate(self, pid: int, expected: int) -> bool:
        """True iff the page is unlocked and unchanged since ``expected``."""
        if self._latch(pid).version == expected:
            return True
        self.validation_failures += 1
        return False

    # -- write latching ----------------------------------------------------

    def write_acquire(self, pid: int, owner: Optional[str] = None):
        """Process generator: FIFO write latch; returns the pre-lock version."""
        latch = self._latch(pid)
        self.write_acquires += 1
        if latch.version & 1:
            event = Event(self.env)
            latch.waiters.append((event, owner, "write"))
            self.write_waits += 1
            yield event
            # Direct hand-off: the releaser re-locked the latch on our
            # behalf (no barging), so the version is already odd.
            latch.holder = owner
            return (latch.version - 1) % self.wrap
        pre = latch.version
        latch.version = (latch.version + 1) % self.wrap
        latch.holder = owner
        return pre

    def write_release(self, pid: int, owner: Optional[str] = None) -> None:
        """Release a write latch, bumping the version and waking waiters.

        Parked readers ahead of the next writer are all resumed (they
        re-check and re-park if a writer was granted in the same release);
        the first parked writer gets the latch handed off directly, which
        keeps the queue FIFO.  Intentionally counter-free: this runs from
        ``finally`` blocks during generator teardown after a crash, and
        must not perturb deterministic statistics.
        """
        latch = self._latch(pid)
        if not latch.version & 1:
            raise SimulationError(f"write_release of unheld latch on page {pid} by {owner!r}")
        latch.version = (latch.version + 1) % self.wrap
        latch.holder = None
        while latch.waiters:
            event, w_owner, kind = latch.waiters.popleft()
            if kind == "read":
                event.succeed()
                continue
            # Hand the latch to the next writer before any new arrival can
            # barge: lock now, let the waiter's generator adopt it on resume.
            latch.version = (latch.version + 1) % self.wrap
            latch.holder = w_owner
            event.succeed(True)
            break

    def locked(self, pid: int) -> bool:
        return bool(self._latch(pid).version & 1)

    def bump(self, pid: int) -> None:
        """Advance a page's version by a full cycle without latching it.

        Used for pages a structural change mutates *without* holding their
        latch (freshly allocated split siblings, a rewired neighbor's
        back-pointer, a new root): +2 preserves the free/held parity while
        invalidating every optimistic snapshot of the page.
        """
        latch = self._latch(pid)
        latch.version = (latch.version + 2) % self.wrap

    @contextmanager
    def structural(self, held: Iterator[int] = ()) -> Iterator[None]:
        """Bump the version of every page the enclosed mutation touches.

        Chains onto the store's ``write_observer`` (preserving WAL logging)
        to record the write set, then bumps each mutated or allocated page
        that is not in ``held`` — held pages get their bump from
        :meth:`write_release`.  This is what makes mutations performed by
        the underlying (atomic) tree code visible to optimistic readers.
        """
        if self.store is None:
            raise SimulationError("structural() needs the manager bound to a page store")
        mutated: dict[int, None] = {}
        previous = self.store.write_observer

        def observe(event: str, page_id: int) -> None:
            if previous is not None:
                previous(event, page_id)
            if event in ("alloc", "dirty"):
                mutated[page_id] = None

        self.store.write_observer = observe
        try:
            yield
        finally:
            self.store.write_observer = previous
            held_set = set(held)
            for pid in mutated:
                if pid not in held_set:
                    self.bump(pid)

    # -- watchdog ----------------------------------------------------------

    def held_latches(self) -> dict[int, Optional[str]]:
        """Currently write-held latches: page id -> holder label."""
        return {
            pid: latch.holder for pid, latch in self._latches.items() if latch.version & 1
        }

    def parked_waiters(self) -> list[tuple[int, Optional[str], str]]:
        """Parked waiters as (page id, owner, "read" | "write") triples."""
        return [
            (pid, owner, kind)
            for pid, latch in self._latches.items()
            for __, owner, kind in latch.waiters
        ]

    def attach_watchdog(self, env: Optional[Environment] = None) -> None:
        """Register the deadlock check on the environment's drain hooks."""
        (env if env is not None else self.env).drain_checks.append(self._drain_check)

    def _drain_check(self) -> None:
        parked = self.parked_waiters()
        if parked:
            raise LatchDeadlockError(self.held_latches(), parked)

    def counters(self) -> dict[str, int]:
        """Deterministic counter snapshot (merged across rebuilds upstream)."""
        return {
            "optimistic_reads": self.optimistic_reads,
            "read_waits": self.read_waits,
            "write_acquires": self.write_acquires,
            "write_waits": self.write_waits,
            "validation_failures": self.validation_failures,
        }


class ConcurrentTreeOps:
    """Concurrent lookup/scan/insert generators over one serving substrate.

    ``mode`` is ``"page"`` (optimistic reads + latch crabbing writes),
    ``"coarse"`` (one global latch around whole operations — the benchmark
    baseline), or ``"broken"`` (validation off, inserts applied into the
    traversal's stale leaf — the deliberately unsound mode whose histories
    the linearizability checker must reject).

    The tree must be a :class:`~repro.core.disk_first.DiskFirstFpTree` (the
    serving layer's default index): pages are read atomically through its
    untraced routing kernel (:class:`~repro.core.inpage.FpPage`).
    """

    MODES = ("page", "coarse", "broken")

    def __init__(
        self,
        db,
        latches: PageLatchManager,
        mode: str = "page",
        page_process_us: float = 150.0,
        retry_budget: int = 8,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if retry_budget < 1:
            raise ValueError(f"retry_budget must be >= 1, got {retry_budget}")
        self.db = db
        self.latches = latches
        self.mode = mode
        self.page_process_us = page_process_us
        self.retry_budget = retry_budget
        # Traversal outcome counters (live-path only; see PageLatchManager).
        self.read_restarts = 0
        self.write_restarts = 0
        self.pessimistic_reads = 0
        self.pessimistic_writes = 0
        self.scan_restarts = 0

    @property
    def tree(self):
        # Resolved per call: a crash-recovery swaps ``db.index`` wholesale.
        return self.db.index

    def counters(self) -> dict[str, int]:
        return {
            "read_restarts": self.read_restarts,
            "write_restarts": self.write_restarts,
            "scan_restarts": self.scan_restarts,
            "pessimistic_reads": self.pessimistic_reads,
            "pessimistic_writes": self.pessimistic_writes,
        }

    # -- shared descent machinery ------------------------------------------

    def _optimistic_descend(self, reader, key: int, owner):
        """Hand-over-hand versioned descent to the leaf page for ``key``.

        Returns ``(ok, path)`` with ``path`` a list of ``(pid, version)``
        from root to leaf.  On success the leaf has been demand-paged,
        charged, and its version validated *after* the paging waits, so the
        caller may read its content atomically right away.  ``ok=False``
        means some validation failed mid-descent and the caller should
        restart (in ``"broken"`` mode validation is skipped, so descents
        never fail — that is the point).
        """
        tree = self.tree
        latches = self.latches
        env = reader.env
        validating = self.mode != "broken"
        root = tree.root_pid
        version = yield from latches.read_begin(root, owner)
        if validating and root != tree.root_pid:
            # The root split while we waited on its latch: restart on the new one.
            return False, []
        path = [(root, version)]
        pid = root
        while True:
            yield from reader.demand(pid)
            with reader.pool.pinned(pid, owner=owner):
                yield env.timeout(self.page_process_us)
            # The waits above are the race window: nothing read from this
            # page can be trusted until its version still matches.
            page = tree.store.page(pid)
            if page.level == 0:
                if validating and not latches.validate(pid, path[-1][1]):
                    return False, path
                return True, path
            child = page.child_pid(key)
            child_version = yield from latches.read_begin(child, owner)
            if validating and not latches.validate(pid, path[-1][1]):
                return False, path
            path.append((child, child_version))
            pid = child

    def _pessimistic_descend(self, reader, key: int, owner, crabbing_for_insert: bool):
        """Write-latched descent (latch coupling / crabbing); returns state.

        Returns ``(leaf_pid, held, path)``: the leaf page id, the list of
        latches still held (the unsafe suffix for inserts; just the leaf
        for reads), and the full pid path for split propagation.  Latches
        are acquired strictly root-to-leaf, which is what keeps writers
        and pessimistic readers deadlock-free against each other.
        """
        tree = self.tree
        latches = self.latches
        env = reader.env
        while True:
            root = tree.root_pid
            yield from latches.write_acquire(root, owner)
            if root == tree.root_pid:
                break
            # A root split slipped in before our latch landed: chase it.
            latches.write_release(root, owner)
        held = [root]
        path = [root]
        pid = root
        try:
            while True:
                yield from reader.demand(pid)
                with reader.pool.pinned(pid, owner=owner):
                    yield env.timeout(self.page_process_us)
                page = tree.store.page(pid)
                if page.level == 0:
                    return pid, held, path
                child = page.child_pid(key)
                yield from latches.write_acquire(child, owner)
                path.append(child)
                if not crabbing_for_insert or self._page_safe(tree.store.page(child)):
                    # The child cannot split (or we only need read
                    # isolation): ancestors are released, crab-style.
                    for ancestor in held:
                        latches.write_release(ancestor, owner)
                    held = [child]
                else:
                    held.append(child)
                pid = child
        except BaseException:
            for ancestor in reversed(held):
                latches.write_release(ancestor, owner)
            raise

    def _page_safe(self, page) -> bool:
        """True if one more entry cannot page-split this page.

        Mirrors ``DiskFirstFpTree._insert_entry``: below this threshold a
        full page reorganizes in place (touching only itself); at or above
        it, an insert may split — so a crabbing writer must keep the
        parent latched.
        """
        layout = self.tree.layout
        return page.total < layout.page_fanout - layout.max_leaf_nodes

    # -- lookup ------------------------------------------------------------

    def lookup(self, reader, key: int, owner=None):
        """Process generator: concurrent point lookup; returns the row."""
        if self.mode == "coarse":
            yield from self.latches.write_acquire(GLOBAL_LATCH, owner)
            try:
                row = yield from self.db.serve_lookup(
                    reader, key, page_process_us=self.page_process_us, owner=owner
                )
            finally:
                self.latches.write_release(GLOBAL_LATCH, owner)
            return row
        env = reader.env
        tree = self.tree
        restarts = 0
        tid = None
        while True:
            ok, path = yield from self._optimistic_descend(reader, key, owner)
            if ok:
                leaf_pid = path[-1][0]
                tid = tree.store.page(leaf_pid).find(key)
                break
            restarts += 1
            self.read_restarts += 1
            if restarts >= self.retry_budget:
                self.pessimistic_reads += 1
                leaf_pid, held, __ = yield from self._pessimistic_descend(
                    reader, key, owner, crabbing_for_insert=False
                )
                try:
                    tid = tree.store.page(leaf_pid).find(key)
                finally:
                    for pid in reversed(held):
                        self.latches.write_release(pid, owner)
                break
        if tid is None:
            return None
        heap_pid, __ = self.db.table.tid_to_location(int(tid) - 1)
        yield from reader.demand(heap_pid)
        yield env.timeout(self.page_process_us)
        return self.db.table.fetch(int(tid) - 1)

    # -- scan --------------------------------------------------------------

    def scan(
        self,
        reader,
        start_key: int,
        end_key: int,
        owner=None,
        max_pages: Optional[int] = None,
    ):
        """Process generator: inclusive range count; returns (count, truncated).

        The optimistic walk re-validates every visited leaf at the end, so
        an untruncated count is consistent as of one instant (its
        linearization point).  With duplicate keys spanning a page boundary
        a restarted walk could double-count; the serving workload's keys
        are unique, and the sequential ``range_scan`` keeps full duplicate
        semantics for everything else.
        """
        if self.mode == "coarse":
            yield from self.latches.write_acquire(GLOBAL_LATCH, owner)
            try:
                count = yield from self.db.serve_scan(
                    reader, start_key, end_key,
                    page_process_us=self.page_process_us,
                    max_pages=max_pages, owner=owner,
                )
            finally:
                self.latches.write_release(GLOBAL_LATCH, owner)
            return count, max_pages is not None
        restarts = 0
        while True:
            result = yield from self._optimistic_scan(
                reader, start_key, end_key, owner, max_pages
            )
            if result is not None:
                return result
            restarts += 1
            self.scan_restarts += 1
            if restarts >= self.retry_budget:
                self.pessimistic_reads += 1
                return (
                    yield from self._pessimistic_scan(
                        reader, start_key, end_key, owner, max_pages
                    )
                )

    def _optimistic_scan(self, reader, start_key, end_key, owner, max_pages):
        tree = self.tree
        latches = self.latches
        env = reader.env
        validating = self.mode != "broken"
        ok, path = yield from self._optimistic_descend(reader, start_key, owner)
        if not ok:
            return None
        pid, version = path[-1]
        visited: list[tuple[int, int]] = []
        count = 0
        truncated = False
        while True:
            page = tree.store.page(pid)
            count_here, __, done = page.range_count(start_key, end_key)
            next_pid = page.next_page
            if validating and not latches.validate(pid, version):
                return None
            visited.append((pid, version))
            count += count_here
            if done or next_pid == INVALID_PAGE_ID:
                break
            if max_pages is not None and len(visited) >= max_pages:
                truncated = True
                break
            next_version = yield from latches.read_begin(next_pid, owner)
            if validating and not latches.validate(pid, version):
                # The sibling pointer we just followed is no longer current.
                return None
            yield from reader.demand(next_pid)
            with reader.pool.pinned(next_pid, owner=owner):
                yield env.timeout(self.page_process_us)
            pid, version = next_pid, next_version
        if validating and not truncated:
            # End-to-end revalidation: all pages unchanged since first read
            # means the union snapshot is consistent *now* — the scan
            # linearizes at this instant.
            for seen_pid, seen_version in visited:
                if not latches.validate(seen_pid, seen_version):
                    return None
        return count, truncated

    def _pessimistic_scan(self, reader, start_key, end_key, owner, max_pages):
        """Latch the whole covered leaf chain (a range lock), then count."""
        tree = self.tree
        latches = self.latches
        env = reader.env
        leaf_pid, held, __ = yield from self._pessimistic_descend(
            reader, start_key, owner, crabbing_for_insert=False
        )
        count = 0
        truncated = False
        try:
            pid = leaf_pid
            while True:
                page = tree.store.page(pid)
                count_here, __, done = page.range_count(start_key, end_key)
                next_pid = page.next_page
                count += count_here
                if done or next_pid == INVALID_PAGE_ID:
                    break
                if max_pages is not None and len(held) >= max_pages:
                    truncated = True
                    break
                # Left-to-right leaf coupling: writers latch leaves before
                # splitting them, so holding the visited chain freezes the
                # counted range until release.
                yield from latches.write_acquire(next_pid, owner)
                held.append(next_pid)
                yield from reader.demand(next_pid)
                with reader.pool.pinned(next_pid, owner=owner):
                    yield env.timeout(self.page_process_us)
                pid = next_pid
        finally:
            for pid in reversed(held):
                latches.write_release(pid, owner)
        return count, truncated

    # -- insert ------------------------------------------------------------

    def insert(self, reader, disks, key: int, k2: int = 0, k3: int = 0, owner=None):
        """Process generator: concurrent insert; returns the new row id."""
        if self.mode == "coarse":
            yield from self.latches.write_acquire(GLOBAL_LATCH, owner)
            try:
                row = yield from self.db.serve_insert(
                    reader, disks, key, k2, k3,
                    page_process_us=self.page_process_us, owner=owner,
                )
            finally:
                self.latches.write_release(GLOBAL_LATCH, owner)
            return row
        if self.mode == "broken":
            return (yield from self._broken_insert(reader, disks, key, k2, k3, owner))
        restarts = 0
        while True:
            applied, row = yield from self._optimistic_insert(
                reader, disks, key, k2, k3, owner
            )
            if applied:
                return row
            if applied is None:
                # Split-unsafe leaf: retrying optimistically cannot help.
                break
            restarts += 1
            self.write_restarts += 1
            if restarts >= self.retry_budget:
                break
        self.pessimistic_writes += 1
        return (yield from self._crabbing_insert(reader, disks, key, k2, k3, owner))

    def _apply_insert(self, leaf_pid: int, key: int, k2: int, k3: int, path_above, held):
        """Atomically apply the mutation into the traversal's leaf.

        Unlike ``MiniDbms.insert`` this does *not* re-descend: the leaf the
        (validated, latched) traversal located is mutated directly, which
        is exactly what makes the latches load-bearing — with them gone
        (``"broken"``), a split between traversal and apply puts the entry
        in the wrong page.
        """
        tree = self.tree
        db = self.db
        page, base = tree._page(leaf_pid)
        with self.latches.structural(held=held):
            with db._txn():
                row = db.table.insert_row(key, k2, k3)
                tree._insert_entry(leaf_pid, page, base, key, row + 1, list(path_above))
                tree._entries += 1
        return row

    def _finish_write(self, reader, disks, leaf_pid: int):
        """Charge WAL commit latency and the leaf's write-through."""
        env = reader.env
        wal = self.db.wal
        if wal is not None and wal.last_commit_write_us > 0:
            yield env.timeout(wal.last_commit_write_us)
        yield disks.write_page(leaf_pid)

    def _optimistic_insert(self, reader, disks, key, k2, k3, owner):
        """Fast path: latch-free descent, write-latch + validate the leaf."""
        tree = self.tree
        latches = self.latches
        ok, path = yield from self._optimistic_descend(reader, key, owner)
        if not ok:
            return False, None
        leaf_pid, leaf_version = path[-1]
        pre = yield from latches.write_acquire(leaf_pid, owner)
        try:
            if pre != leaf_version:
                # Someone changed the leaf between our validation and the
                # latch landing: the routed position may be stale.
                return False, None
            if not self._page_safe(tree.store.page(leaf_pid)):
                # A split would touch unlatched ancestors: escalate to
                # crabbing (which latches the unsafe suffix top-down).
                return None, None
            row = self._apply_insert(
                leaf_pid, key, k2, k3,
                path_above=[pid for pid, __ in path[:-1]], held=(leaf_pid,),
            )
        finally:
            latches.write_release(leaf_pid, owner)
        yield from self._finish_write(reader, disks, leaf_pid)
        return True, row

    def _crabbing_insert(self, reader, disks, key, k2, k3, owner):
        """Slow path: root-to-leaf write latching with safe-child release."""
        leaf_pid, held, path = yield from self._pessimistic_descend(
            reader, key, owner, crabbing_for_insert=True
        )
        try:
            row = self._apply_insert(
                leaf_pid, key, k2, k3, path_above=path[:-1], held=held
            )
        finally:
            for pid in reversed(held):
                self.latches.write_release(pid, owner)
        yield from self._finish_write(reader, disks, leaf_pid)
        return row

    def _broken_insert(self, reader, disks, key, k2, k3, owner):
        """No latches, no validation: apply into the stale traversal leaf.

        This is the seeded known-bad path: when a concurrent split moves
        the leaf's key range mid-descent, the entry lands in a page proper
        descents no longer route to — an acknowledged-then-lost update the
        linearizability checker must catch.
        """
        ok, path = yield from self._optimistic_descend(reader, key, owner)
        assert ok, "broken mode never validates, so descents cannot fail"
        leaf_pid = path[-1][0]
        tree = self.tree
        db = self.db
        page, base = tree._page(leaf_pid)
        with db._txn():
            row = db.table.insert_row(key, k2, k3)
            tree._insert_entry(
                leaf_pid, page, base, key, row + 1, [pid for pid, __ in path[:-1]]
            )
            tree._entries += 1
        yield from self._finish_write(reader, disks, leaf_pid)
        return row
