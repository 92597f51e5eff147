"""Level-wise batched point lookups over the disk-first fpB+-Tree.

Single-query traversal — even the concurrent one in :mod:`repro.btree.cc`
— chases one root-to-leaf pointer path at a time, so a batch of B lookups
pays B root decodes, B separate descents and B random leaf reads.  This
module applies the paper's core move (fetch a whole fractal level in one
prefetch wave) *across* queries, in the spirit of the FPGA level-wise
batch-search design (arXiv:2604.21117) and BS-tree's data-parallel node
layout (arXiv:2505.01180):

* **Sort and dedup.**  The batch's keys are routed together, so all keys
  that fall into one page share a single demand read, a single
  ``page_process_us`` charge and a single separator decode — upper levels
  (the root above all) collapse to one visit per page per batch.
* **Level-wise waves.**  The frontier of pages needed for the next level
  is issued as one :meth:`~repro.storage.prefetch.AsyncPageReader.prefetch_wave`
  in sorted page-id order before any demand blocks, so the spindles see a
  near-sequential run of short seeks instead of B independent random
  reads, and the per-page latencies overlap.
* **Vectorized in-page search.**  Each visited page's in-page leaf nodes
  are flattened once into sorted separator arrays and every key routed
  with one ``np.searchsorted`` call (:func:`route_batch_in_page`,
  :func:`search_leaf_page_batch`) — bit-equivalent to the scalar routing
  kernel's :meth:`~repro.core.inpage.FpPage.child_pid` walk, at numpy speed.

Concurrency follows the mode of the :class:`~repro.btree.cc.ConcurrentTreeOps`
the batch is given:

* ``cc=None`` (the serving layer's ``concurrency="none"``): tree mutations
  are atomic between DES yields, but a split can still land *between* the
  batch's yields and stale-route a key.  The batch snapshots the leaf-topology
  fingerprint ``MiniDbms.leaf_map_epoch()`` at the start and, at every leaf visit,
  falls back to an atomic fresh ``index.search`` for the affected keys the
  moment the epoch moved — the batched results are always what a
  per-key ``serve_lookup`` would have returned.
* ``mode="page"``: the optimistic seqlock protocol of
  :meth:`~repro.btree.cc.ConcurrentTreeOps._optimistic_descend`, batched —
  versions are captured via ``read_begin`` before a page is trusted and
  re-validated after its routing; keys whose parent validation fails
  restart from the root, and after ``retry_budget`` failed passes they
  fall back to the single-key concurrent lookup (which always makes
  progress).  Batches therefore stay linearizable per key.
* ``mode="coarse"``: the whole batch runs under the tree-wide latch.
* ``mode="broken"``: validation off (the seeded negative control).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .cc import GLOBAL_LATCH, ConcurrentTreeOps

__all__ = [
    "LevelWiseLookupBatch",
    "page_separator_arrays",
    "route_batch_in_page",
    "search_leaf_page_batch",
]


def page_separator_arrays(page) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a page's in-page leaf nodes into sorted (keys, ptrs) arrays.

    The in-page tree stores its entries across cache-line-sized leaf nodes;
    concatenating them in key order yields one sorted separator array per
    page, which is what makes whole-batch ``searchsorted`` routing possible.
    Decoding is O(entries) once per page per batch, instead of one scalar
    node walk per key.
    """
    nodes = page.leaf_nodes_in_order()
    if not nodes:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys = np.concatenate([node.keys[: node.count] for node in nodes])
    ptrs = np.concatenate([node.ptrs[: node.count] for node in nodes])
    return keys, ptrs


def route_batch_in_page(page, keys: np.ndarray) -> np.ndarray:
    """Route a sorted key batch through one interior page to child page ids.

    Equivalent to ``[page.child_pid(k) for k in keys]`` (the slot of
    the rightmost separator ``<= k``, clamped to the first child for keys
    below every separator), in one vectorized ``searchsorted``.
    """
    seps, ptrs = page_separator_arrays(page)
    # Compare in signed 64-bit: the stored key dtype may be unsigned, and a
    # below-range probe key must clamp to the first child, not wrap around.
    slots = np.searchsorted(
        seps.astype(np.int64, copy=False),
        np.asarray(keys, dtype=np.int64),
        side="right",
    ) - 1
    np.clip(slots, 0, None, out=slots)
    return ptrs[slots].astype(np.int64, copy=False)


def search_leaf_page_batch(page, keys: np.ndarray) -> np.ndarray:
    """Exact-match a key batch inside one leaf page; 0 marks a miss.

    Tuple ids are 1-based everywhere (see ``MiniDbms.lookup``), so 0 is
    free to encode "not present".  Equivalent to per-key
    :meth:`~repro.core.inpage.FpPage.find`.
    """
    seps, ptrs = page_separator_arrays(page)
    karr = np.asarray(keys, dtype=np.int64)
    if len(seps) == 0:
        return np.zeros(len(karr), dtype=np.int64)
    seps = seps.astype(np.int64, copy=False)  # signed compare (see routing)
    slots = np.searchsorted(seps, karr, side="left")
    clamped = np.minimum(slots, len(seps) - 1)
    found = (slots < len(seps)) & (seps[clamped] == karr)
    return np.where(found, ptrs[clamped], 0).astype(np.int64, copy=False)


class LevelWiseLookupBatch:
    """One batch of point lookups executed level-by-level.

    ``run`` is a DES process generator; results come back aligned with the
    input ``keys`` (rows, or ``None`` for misses).  ``on_result(index, row)``
    fires the moment each key's row (or miss) is decided — per-op latency
    attribution for the serving layer, without waiting for batch stragglers.
    """

    def __init__(
        self,
        db,
        keys,
        page_process_us: float = 150.0,
        owner=None,
        cc: Optional[ConcurrentTreeOps] = None,
    ) -> None:
        self.db = db
        self.keys = [int(k) for k in keys]
        self.page_process_us = page_process_us
        self.owner = owner
        self.cc = cc
        self.mode = "none" if cc is None else cc.mode
        self.retry_budget = 1 if cc is None else cc.retry_budget
        # Batch-shaped instrumentation (read by tests and benchmarks).
        self.pages_visited = 0
        self.restarts = 0
        self.fallback_lookups = 0
        self.epoch_fallbacks = 0

    # -- entry point ---------------------------------------------------------

    def run(self, reader, on_result: Optional[Callable] = None):
        """Process generator: resolve every key; returns the row list."""
        if not self.keys:
            return []
        if self.mode == "coarse":
            latches = self.cc.latches
            yield from latches.write_acquire(GLOBAL_LATCH, self.owner)
            try:
                rows = yield from self._run_batch(reader, on_result, validating=False)
            finally:
                latches.write_release(GLOBAL_LATCH, self.owner)
            return rows
        validating = self.mode == "page"
        rows = yield from self._run_batch(reader, on_result, validating)
        return rows

    # -- level-wise machinery ------------------------------------------------

    def _run_batch(self, reader, on_result, validating: bool):
        env = reader.env
        n = len(self.keys)
        rows: list = [None] * n
        tids: list = [None] * n
        done = [False] * n
        # Key indices in sorted-key order: every per-page array the passes
        # build below is then sorted too, and sibling leaves are visited
        # left-to-right (the near-sequential run the disk model rewards).
        pending = sorted(range(n), key=lambda i: self.keys[i])
        epoch0 = self.db.leaf_map_epoch() if self.mode == "none" else None
        passes = 0
        while pending:
            passes += 1
            if validating and passes > self.retry_budget:
                # The optimistic batch burned its budget: resolve the
                # stragglers through the single-key concurrent lookup,
                # which escalates to pessimistic latching and always
                # terminates.
                self.fallback_lookups += len(pending)
                for i in pending:
                    row = yield from self.cc.lookup(
                        reader, self.keys[i], owner=self.owner
                    )
                    rows[i] = row
                    done[i] = True
                    if on_result is not None:
                        on_result(i, row)
                pending = []
                break
            resolved_misses, retry = yield from self._descend_pass(
                reader, pending, tids, epoch0, validating
            )
            for i in resolved_misses:
                done[i] = True
                if on_result is not None:
                    on_result(i, None)
            if retry:
                self.restarts += 1
            pending = retry
        yield from self._heap_pass(reader, env, rows, tids, done, on_result)
        return rows

    def _descend_pass(self, reader, indices, tids, epoch0, validating: bool):
        """One root-to-leaf level-wise pass over ``indices``.

        Fills ``tids`` for keys whose leaf search concluded, returns
        ``(misses, retry)``: key indices decided absent, and key indices
        whose page validation failed (restart from the root).
        """
        env = reader.env
        tree = self.db.index
        latches = self.cc.latches if self.cc is not None else None
        retry: list[int] = []
        misses: list[int] = []
        versions: dict[int, int] = {}
        root = tree.root_pid
        if validating:
            versions[root] = yield from latches.read_begin(root, self.owner)
            if root != tree.root_pid:
                # The root split while we waited on its latch: restart on
                # the new one (mirrors _optimistic_descend).
                return [], list(indices)
        frontier: dict[int, list[int]] = {root: list(indices)}
        while frontier:
            wave = sorted(frontier)
            reader.prefetch_wave([pid for pid in wave if not reader.pool.contains(pid)])
            next_frontier: dict[int, list[int]] = {}
            for pid in wave:
                idxs = frontier[pid]
                yield from reader.demand(pid)
                with reader.pool.pinned(pid, owner=self.owner):
                    yield env.timeout(self.page_process_us)
                self.pages_visited += 1
                # Everything below here is atomic in simulated time: the
                # page is decoded, routed/searched and (in page mode)
                # validated with no intervening yield.
                page = tree.store.page(pid)
                karr = np.asarray([self.keys[i] for i in idxs], dtype=np.int64)
                if page.level == 0:
                    found = search_leaf_page_batch(page, karr)
                    if validating and not latches.validate(pid, versions[pid]):
                        retry.extend(idxs)
                        continue
                    if epoch0 is not None and self.db.leaf_map_epoch() != epoch0:
                        # A split landed between this batch's yields: the
                        # level-wise routing that led here may be stale, so
                        # re-resolve these keys with atomic fresh descents
                        # (exactly what per-key serve_lookup trusts).
                        self.epoch_fallbacks += len(idxs)
                        for i in idxs:
                            tid = tree.search(self.keys[i])
                            if tid is None:
                                misses.append(i)
                            else:
                                tids[i] = int(tid)
                        continue
                    for i, tid in zip(idxs, found.tolist()):
                        if tid:
                            tids[i] = int(tid)
                        else:
                            misses.append(i)
                    continue
                children = route_batch_in_page(page, karr)
                groups: dict[int, list[int]] = {}
                for i, child in zip(idxs, children.tolist()):
                    groups.setdefault(int(child), []).append(i)
                if validating:
                    child_versions = {}
                    for child in sorted(groups):
                        child_versions[child] = yield from latches.read_begin(
                            child, self.owner
                        )
                    if not latches.validate(pid, versions[pid]):
                        # The parent moved after routing: nothing routed
                        # from it (or the versions just captured) can be
                        # trusted.
                        retry.extend(idxs)
                        continue
                    versions.update(child_versions)
                for child, group in groups.items():
                    next_frontier.setdefault(child, []).extend(group)
            frontier = next_frontier
        return misses, retry

    def _heap_pass(self, reader, env, rows, tids, done, on_result):
        """Fetch every hit's heap page, one wave, one visit per page."""
        by_heap_page: dict[int, list[int]] = {}
        for i, tid in enumerate(tids):
            if done[i] or tid is None:
                continue
            heap_pid, __ = self.db.table.tid_to_location(tid - 1)
            by_heap_page.setdefault(heap_pid, []).append(i)
        heap_pids = sorted(by_heap_page)
        reader.prefetch_wave([pid for pid in heap_pids if not reader.pool.contains(pid)])
        for pid in heap_pids:
            yield from reader.demand(pid)
            yield env.timeout(self.page_process_us)
            self.pages_visited += 1
            for i in by_heap_page[pid]:
                rows[i] = self.db.table.fetch(tids[i] - 1)
                done[i] = True
                if on_result is not None:
                    on_result(i, rows[i])
