"""The chain-walking leaf-span resolver against a global first-key map.

``repro.span.leaf_span`` resolves a scan's leaf pages locally: from the
start key's descent leaf it steps along the sibling chain.  The oracle
below is the global map it replaced — every leaf's first key in chain
order, searched with ``np.searchsorted`` — and is defined only here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CacheFirstFpTree, DiskBPlusTree, DiskFirstFpTree, MicroIndexTree, TreeEnvironment
from repro.core.inpage import FpPage
from repro.dbms.engine import MiniDbms
from repro.des import Environment
from repro.faults.schedule import ChaosSchedule
from repro.span import first_key_of_leaf_page, leaf_span
from repro.storage.buffer import BufferPool
from repro.storage.config import StorageConfig
from repro.storage.disk import DiskArray
from repro.storage.prefetch import AsyncPageReader


def env():
    return TreeEnvironment(page_size=1024, buffer_pages=256)


FACTORIES = {
    "disk": lambda: DiskBPlusTree(env()),
    "micro": lambda: MicroIndexTree(env()),
    "fp-disk": lambda: DiskFirstFpTree(env()),
    "fp-cache": lambda: CacheFirstFpTree(env(), num_keys_hint=4_000),
}
KINDS = sorted(FACTORIES)
BASE_KEYS = list(range(100, 100 + 4 * 1500, 4))  # 100 .. 6096


def grown(kind: str, inserts) -> object:
    """A bulkloaded tree, then ``inserts`` (gap keys: they force splits)."""
    tree = FACTORIES[kind]()
    tree.bulkload(BASE_KEYS, list(range(1, len(BASE_KEYS) + 1)))
    for key in inserts:
        tree.insert(int(key), 1)
    return tree


def map_oracle(tree, start_key: int, end_key: int, following: int):
    """The global leaf map's rule: searchsorted over every leaf's first key."""
    pids = tree.leaf_page_ids()
    firsts = np.asarray([first_key_of_leaf_page(tree, pid) for pid in pids], dtype=np.int64)
    lo = max(int(np.searchsorted(firsts, start_key, side="right")) - 1, 0)
    hi = max(int(np.searchsorted(firsts, end_key, side="right")) - 1, lo)
    return pids[lo : hi + 1], pids[hi + 1 : hi + 1 + following]


def skip_empty_oracle(tree, start_key: int, end_key: int, following: int):
    """The map rule over the non-empty leaves only; empty pages between the
    start and end leaves stay in the span."""
    pids = tree.leaf_page_ids()
    firsts = [first_key_of_leaf_page(tree, pid) for pid in pids]
    filled = [i for i, key in enumerate(firsts) if key is not None]
    keys = np.asarray([firsts[i] for i in filled], dtype=np.int64)

    def last_at_or_below(key: int) -> int:
        at = int(np.searchsorted(keys, key, side="right")) - 1
        return filled[at] if at >= 0 else 0

    lo = last_at_or_below(start_key)
    hi = max(last_at_or_below(end_key), lo)
    return pids[lo : hi + 1], pids[hi + 1 : hi + 1 + following]


span_queries = st.lists(
    st.tuples(st.integers(0, 6300), st.integers(0, 600), st.integers(0, 70)),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    inserts=st.lists(st.integers(25, 1524).map(lambda i: 4 * i + 1), max_size=600),
    queries=span_queries,
    data=st.data(),
)
def test_resolver_equals_global_map(kind, inserts, queries, data):
    """Equal from the real descent leaf, and from any other leaf: the chain
    walk corrects a starting leaf left or right of the span."""
    tree = grown(kind, inserts)
    pids = tree.leaf_page_ids()
    firsts = [first_key_of_leaf_page(tree, pid) for pid in pids]
    assert firsts == sorted(firsts) and None not in firsts
    for start, width, following in queries:
        expected = map_oracle(tree, start, start + width, following)
        assert leaf_span(tree, start, start + width, following) == expected
        landing = data.draw(st.sampled_from(pids))
        tree.page_path = lambda key: [landing]
        assert leaf_span(tree, start, start + width, following) == expected
        del tree.page_path


@pytest.mark.parametrize("kind", KINDS)
def test_resolver_edges(kind):
    tree = grown(kind, range(1001, 3001, 4))  # one dense run of splits
    pids = tree.leaf_page_ids()
    firsts = [first_key_of_leaf_page(tree, pid) for pid in pids]
    assert len(pids) > 10
    cases = [
        (0, 50),  # entirely below the minimum
        (0, 10_000),  # the whole tree
        (6096, 9_999),  # from the maximum key past it
        (7_000, 8_000),  # entirely above the maximum
        (3_000, 3_000),  # end == start
        (9, 3),  # end < start
    ]
    # Start exactly on, just below and just above every page boundary,
    # with spans crossing one or several boundaries.
    for key in firsts[1:]:
        cases += [(key, key), (key - 1, key), (key + 1, key + 200), (key - 1, key + 2_000)]
    expected = {(s, e, f): map_oracle(tree, s, e, f) for s, e in cases for f in (0, 1, 64)}
    for case, span_and_tail in expected.items():
        assert leaf_span(tree, *case) == span_and_tail, case
    # The same spans when the walk starts from the chain's head or tail.
    for landing in (pids[0], pids[-1]):
        tree.page_path = lambda key: [landing]
        for case, span_and_tail in expected.items():
            assert leaf_span(tree, *case) == span_and_tail, (landing, case)
        del tree.page_path
    span, tail = leaf_span(tree, 0, 10_000, following=64)
    assert span == pids and tail == []
    assert leaf_span(tree, 0, 50)[0] == [pids[0]]
    assert leaf_span(tree, 7_000, 8_000)[0] == [pids[-1]]


def empty_out(tree, firsts, index: int) -> None:
    """Delete every entry of leaf page ``index`` (keys are unique, so the
    page holds exactly the keys from its first key to the next page's)."""
    stop = firsts[index + 1] if index + 1 < len(firsts) else float("inf")
    for key in [k for k in BASE_KEYS if firsts[index] <= k < stop]:
        assert tree.delete(key)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_leaf_pages_are_skipped(kind):
    """Deletes can empty a leaf page: it then has no first key, never starts
    a span (unless it heads the chain), and sits inside a span only when a
    non-empty leaf in range follows it."""
    tree = grown(kind, [])
    pids = tree.leaf_page_ids()
    n = len(pids)
    loaded = [first_key_of_leaf_page(tree, pid) for pid in pids]
    emptied = [0, 1, n // 2, n // 2 + 1, n // 2 + 2, n - 1]
    for index in emptied:
        empty_out(tree, loaded, index)
    assert tree.leaf_page_ids() == pids  # lazy deletes: pages stay chained
    firsts = [first_key_of_leaf_page(tree, pid) for pid in pids]
    assert [i for i, key in enumerate(firsts) if key is None] == emptied
    boundary = firsts[n // 2 - 1]
    after_gap = firsts[n // 2 + 3]
    cases = [(0, 50), (0, 10_000), (7_000, 8_000), (boundary, boundary),
             (boundary + 1, after_gap - 1), (boundary + 1, after_gap), (after_gap, after_gap)]
    cases += [(k - 1, k + 30) for k in firsts if k is not None]
    for start, end in cases:
        span, tail = leaf_span(tree, start, end, following=3)
        assert (span, tail) == skip_empty_oracle(tree, start, end, 3), (start, end)
        head_key = first_key_of_leaf_page(tree, span[0])
        assert span[0] == pids[0] or (head_key is not None and head_key <= start)
        assert len(span) == 1 or first_key_of_leaf_page(tree, span[-1]) is not None
    # Below every remaining key: the span starts at the (empty) chain head.
    assert leaf_span(tree, 0, 50)[0] == [pids[0]]
    # Keys of the leaf before the emptied run never resolve into that run.
    assert leaf_span(tree, boundary + 1, after_gap - 1)[0] == [pids[n // 2 - 1]]
    # A span reaching past the run carries the empty pages along.
    assert leaf_span(tree, boundary + 1, after_gap)[0] == pids[n // 2 - 1 : n // 2 + 4]
    # The emptied last page is never reached: the span stops before it.
    assert leaf_span(tree, 7_000, 8_000)[0] == [pids[n - 2]]


def traversal_first_key(page: FpPage):
    """The full in-order traversal definition of a page's first key."""
    for node in page.leaf_nodes_in_order():
        if node.count:
            return int(node.keys[0])
    return None


def test_fp_page_first_key_matches_traversal():
    tree = DiskFirstFpTree(TreeEnvironment(page_size=4096, buffer_pages=256))
    tree.bulkload(BASE_KEYS, list(range(1, len(BASE_KEYS) + 1)))
    pids = tree.leaf_page_ids()
    # Empty the leading in-page leaf nodes of some pages (one, two, all).
    for pid, drop in zip(pids[1:4], (1, 2, None)):
        page = tree.store.page(pid)
        for node in page.leaf_nodes_in_order()[:drop]:
            for key in [int(k) for k in node.keys[: node.count]]:
                assert tree.delete(key)
    assert tree.store.page(pids[3]).total == 0
    for pid in pids:
        page = tree.store.page(pid)
        assert len(page.leaf_nodes_in_order()) > 2
        assert page.first_key() == traversal_first_key(page)
        assert first_key_of_leaf_page(tree, pid) == traversal_first_key(page)
    assert first_key_of_leaf_page(tree, pids[3]) is None
    nonleaf = tree.store.page(tree.root_pid)
    assert nonleaf.first_key() == traversal_first_key(nonleaf)


# -- the serving scan resolves its span from the live chain ---------------------------


def served_scan_pages(db: MiniDbms, start_key: int, end_key: int):
    """Run one serve_scan; return (entry count, leaf pages it demanded)."""
    env = Environment()
    config = StorageConfig(page_size=db.page_size, num_disks=db.num_disks,
                           buffer_pool_pages=48, disk=db.disk_params)
    reader = AsyncPageReader(env, DiskArray(env, config), BufferPool(config, db.store))
    demanded = []
    demand = reader.demand

    def recording_demand(pid, *args, **kwargs):
        demanded.append(pid)
        return demand(pid, *args, **kwargs)

    reader.demand = recording_demand
    process = env.process(db.serve_scan(reader, start_key, end_key, prefetch_depth=0))
    env.run(until=process)
    return process.value, demanded


def test_served_scan_follows_split():
    """After a split, the served span includes the key's new leaf."""
    db = MiniDbms(num_rows=300, num_disks=2, page_size=512, seed=3, mature=False)
    key = int(db._workload.keys[-1])
    count, demanded = served_scan_pages(db, key, key)
    assert count == 1 and demanded == db.index.page_path(key)
    splits_before = db.index.page_splits
    while db.index.page_splits == splits_before:
        key += 2
        db.insert(key)
    path = db.index.page_path(key)
    count, demanded = served_scan_pages(db, key, key)
    assert count == 1 and demanded == path  # the descent, then the new leaf


def test_served_scan_follows_recovery():
    """After crash_and_recover() swaps the index, spans come from the new one,
    including leaves that logged splits added since the last served scan."""
    schedule = ChaosSchedule.parse("", seed=1)
    db = MiniDbms(num_rows=200, num_disks=2, page_size=1024, seed=3, mature=False)
    db.enable_wal(schedule.to_fault_plan(), checkpoint_interval=4)
    key = int(db._workload.keys[-1])
    assert served_scan_pages(db, key, key)[0] == 1
    splits_before = db.index.page_splits
    while db.index.page_splits == splits_before:
        key += 2
        db.insert(key)
    old_index = db.index
    db.crash_and_recover()
    assert db.index is not old_index
    path = db.index.page_path(key)
    count, demanded = served_scan_pages(db, key, key)
    assert count == 1 and demanded == path
