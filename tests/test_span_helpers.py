"""Tests for the public leaf-span helpers and timed-scan parameters."""

import pytest

from repro import CacheFirstFpTree, DiskBPlusTree, DiskFirstFpTree, TreeEnvironment
from repro.bench.io_scan import leaf_pids_for_span, timed_range_scan
from repro.span import first_key_of_leaf_page

FACTORIES = {
    "disk": lambda: DiskBPlusTree(TreeEnvironment(page_size=1024, buffer_pages=256)),
    "fp-disk": lambda: DiskFirstFpTree(TreeEnvironment(page_size=1024, buffer_pages=256)),
    "fp-cache": lambda: CacheFirstFpTree(
        TreeEnvironment(page_size=1024, buffer_pages=256), num_keys_hint=10_000
    ),
}


def loaded(kind, n=5000):
    tree = FACTORIES[kind]()
    keys = list(range(10, 10 + 2 * n, 2))
    tree.bulkload(keys, [1] * n)
    return tree, keys


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_first_keys_increase_along_chain(kind):
    tree, __ = loaded(kind)
    firsts = [first_key_of_leaf_page(tree, pid) for pid in tree.leaf_page_ids()]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_span_covers_requested_range(kind):
    tree, keys = loaded(kind)
    lo, hi = keys[1000], keys[3000]
    pids, extra = leaf_pids_for_span(tree, lo, hi)
    all_pids = tree.leaf_page_ids()
    start = all_pids.index(pids[0])
    assert all_pids[start : start + len(pids)] == pids  # contiguous
    # The covered pages really contain the endpoints.
    assert first_key_of_leaf_page(tree, pids[0]) <= lo
    if extra:
        assert first_key_of_leaf_page(tree, extra[0]) > hi
    # Extras continue the chain.
    assert all_pids[start + len(pids) : start + len(pids) + len(extra)] == extra


def test_span_at_keyspace_edges():
    tree, keys = loaded("disk")
    pids, __ = leaf_pids_for_span(tree, 0, keys[0])
    assert pids[0] == tree.leaf_page_ids()[0]
    pids, extra = leaf_pids_for_span(tree, keys[-1], keys[-1] + 100)
    assert pids[-1] == tree.leaf_page_ids()[-1]
    assert extra == []


def test_first_key_unsupported_type():
    with pytest.raises(TypeError):
        first_key_of_leaf_page(object(), 0)


def test_timed_scan_respects_pool_frames():
    """A pool smaller than the range forces re-reads on revisits only."""
    tree, keys = loaded("disk", n=8000)
    pids, __ = leaf_pids_for_span(tree, keys[0], keys[-1])
    timing = timed_range_scan(tree.store, pids, num_disks=2, use_prefetch=True, pool_frames=8)
    # Forward-only scan: pool size does not force extra reads.
    assert timing.disk_reads == len(pids)


def test_timed_scan_page_process_time_adds_up():
    tree, keys = loaded("disk", n=2000)
    pids, __ = leaf_pids_for_span(tree, keys[0], keys[-1])
    fast = timed_range_scan(tree.store, pids, num_disks=1, page_process_us=0.0)
    slow = timed_range_scan(tree.store, pids, num_disks=1, page_process_us=5000.0)
    assert slow.elapsed_us - fast.elapsed_us == pytest.approx(5000.0 * len(pids))
