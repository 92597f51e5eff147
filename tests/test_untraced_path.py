"""The untraced index path equals the traced one in everything but charges.

With no active tracer (no memory system, or a paused one) the index code
routes through :class:`~repro.core.inpage.FpPage`'s ``bisect`` kernel and
skips simulated-address arithmetic.  What it must not skip is any buffer
pool side effect: hits, misses, the CLOCK state, checksum verification on
install and WAL flush-on-evict all follow from the same ``pool.access`` /
``pool.address_of`` calls in the same order.  These tests run one random
operation stream three ways (``mem=None``, a paused ``MemorySystem``, an
active one) over an 8-frame pool and compare results, pool counters,
resident frames, store checksums and the WAL.  Cache-first pages have no
WAL page image, so ``fp-cache`` runs without a WAL.

The kernel itself is pinned against ``np.searchsorted`` routing (the
reference the scalar serving helpers used) on edge-case keys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.cache_runner import make_index
from repro.btree.context import TreeEnvironment
from repro.btree.keys import KEY4, KEY8
from repro.btree.search import traced_searchsorted
from repro.btree.trace import Tracer
from repro.core.disk_first import DiskFirstFpTree
from repro.core.inpage import NONLEAF
from repro.mem.hierarchy import MemorySystem
from repro.wal import WalManager

KINDS = ("disk", "micro", "fp-disk", "fp-cache")
PAGE_SIZE = 1024
FRAMES = 8
KEY_SPACE = 40_000


# -- one op stream, three measurement planes ----------------------------------------


def run_stream(kind: str, plane: str, keys: list[int], fill: float, ops: list[tuple]):
    """Bulkload, then apply ``ops``; returns everything the planes must share."""
    mem = None if plane == "none" else MemorySystem()
    tree = make_index(kind, PAGE_SIZE, mem=mem, buffer_pages=FRAMES, num_keys_hint=len(keys))
    if mem is not None and plane == "paused":
        mem.enabled = False
    assert tree.tracer.active == (plane == "active")
    tree.bulkload(keys, list(range(1, len(keys) + 1)), fill=fill)
    wal = WalManager(tree) if kind != "fp-cache" else None
    results = []
    for op, a, b in ops:
        if op == "insert":
            results.append(tree.insert(a, b))
        elif op == "delete":
            results.append(tree.delete(a))
        elif op == "search":
            results.append(tree.search(a))
        elif op == "scan":
            results.append(tree.range_scan(a, a + b))
        elif op == "scan_reverse":
            results.append(tree.range_scan_reverse(a, a + b))
        else:
            results.append(tree.page_path(a))
    pool, store = tree.pool, tree.store
    state = {
        "results": results,
        "pool": (pool.hits, pool.misses, pool.evict_flushes, pool.checksum_failures),
        "frames": (list(pool._frame_page), bytes(pool._ref_bit), pool._hand),
        "checksums": {pid: store.expected_checksum(pid) for pid in store.page_ids()},
    }
    if wal is not None:
        state["wal"] = (wal.log.appends, wal.log.records(), wal.durable_checksums)
    return state, tree


key_st = st.integers(min_value=0, max_value=KEY_SPACE)
probe_st = st.one_of(
    key_st,
    st.sampled_from([-7, -1, 0, KEY_SPACE + 1, 2**32 - 1, 2**32, 2**32 + 5]),
)
op_st = st.one_of(
    # Inserts dominate and repeat keys, so nodes fill, pages reorganize and
    # split, and duplicates straddle node and page boundaries.
    st.tuples(st.just("insert"), key_st, st.integers(1, 2**31)),
    st.tuples(st.just("insert"), st.integers(0, 200), st.integers(1, 2**31)),
    st.tuples(st.just("delete"), key_st, st.just(0)),
    st.tuples(st.sampled_from(["search", "page_path"]), probe_st, st.just(0)),
    st.tuples(st.sampled_from(["scan", "scan_reverse"]), probe_st, st.integers(0, 3000)),
)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(
    # Trees of 2-10 pages against 8 frames, and enough ops to fill them.
    keys=st.lists(key_st, min_size=100, max_size=600).map(sorted),
    fill=st.sampled_from([0.5, 0.75, 1.0]),
    ops=st.lists(op_st, min_size=80, max_size=240),
)
def test_untraced_stream_equals_traced(kind, keys, fill, ops):
    base, tree = run_stream(kind, "none", keys, fill, ops)
    for plane in ("paused", "active"):
        state, __ = run_stream(kind, plane, keys, fill, ops)
        assert state == base, f"{kind}: {plane} plane diverged from mem=None"


def test_stream_exercises_splits_reorganizations_and_flushes():
    """A fixed stream reaches every side effect the property test compares."""
    rng = np.random.default_rng(5)
    keys = sorted(int(k) for k in rng.integers(0, KEY_SPACE, 600))
    ops = [("insert", int(k), i + 1) for i, k in enumerate(rng.integers(0, KEY_SPACE, 400))]
    ops += [("scan", 100, 5000), ("scan_reverse", 100, 5000), ("search", keys[7], 0)]
    state, tree = run_stream("fp-disk", "none", keys, 0.75, ops)
    assert tree.page_splits and tree.reorganizations and tree.node_splits
    assert state["pool"][2] > 0  # WAL flush-on-evict fired
    tree.validate()
    for kind in ("disk", "micro", "fp-cache"):
        state, tree = run_stream(kind, "none", keys, 0.75, ops)
        assert state["pool"][1] > FRAMES  # the 8-frame pool evicts
        tree.validate()


# -- the kernel against np.searchsorted routing ---------------------------------------


def ref_leaf(page, key: int, side: str = "right"):
    node = page.root
    while node.kind == NONLEAF:
        slot = max(int(np.searchsorted(node.keys[: node.count], key, side=side)) - 1, 0)
        node = page.nodes[int(node.ptrs[slot])]
    return node


def ref_child_pid(page, key: int, side: str = "right") -> int:
    node = ref_leaf(page, key, side)
    slot = max(int(np.searchsorted(node.keys[: node.count], key, side=side)) - 1, 0)
    return int(node.ptrs[slot])


def ref_find(page, key: int):
    node = ref_leaf(page, key)
    slot = int(np.searchsorted(node.keys[: node.count], key, side="left"))
    if slot < node.count and int(node.keys[slot]) == key:
        return int(node.ptrs[slot])
    return None


def ref_range_count(page, start_key: int, end_key: int, reverse: bool):
    count = tid_sum = 0
    done = False
    for node in page.leaf_nodes_in_order():
        if node.count == 0:
            continue
        lo = int(np.searchsorted(node.keys[: node.count], start_key, side="left"))
        hi = int(np.searchsorted(node.keys[: node.count], end_key, side="right"))
        count += hi - lo
        tid_sum += int(node.ptrs[lo:hi].sum(dtype=np.uint64)) if hi > lo else 0
        done = done or (lo > 0 if reverse else hi < node.count)
    return count, tid_sum, done


def edge_probes(keys: list[int]) -> list[int]:
    probes = [-(2**40), -1, 0, 1, 2**32 - 1, 2**32, 2**33 + 3, 2**64 + 1]
    if keys:
        probes += [keys[0] - 1, keys[0], keys[-1], keys[-1] + 1]
        probes += keys[:: max(1, len(keys) // 12)]
        probes += [k + 1 for k in keys[:: max(1, len(keys) // 12)]]
    return probes


def pages_of(tree):
    frontier = [tree.root_pid]
    while frontier:
        page_ids, frontier = frontier, []
        for pid in page_ids:
            page = tree.store.page(pid)
            yield page
            if page.level > 0:
                for node in page.leaf_nodes_in_order():
                    frontier.extend(int(p) for p in node.ptrs[: node.count])


def check_kernel(tree, probes: list[int]) -> None:
    for page in pages_of(tree):
        for key in probes:
            for side in ("left", "right"):
                assert page.leaf_for(key, side) is ref_leaf(page, key, side)
                if page.level > 0:
                    assert page.child_pid(key, side) == ref_child_pid(page, key, side)
            if page.level == 0:
                assert page.find(key) == ref_find(page, key)
                for span in (0, 1, 57):
                    for reverse in (False, True):
                        got = page.range_count(key, key + span, reverse)
                        assert got == ref_range_count(page, key, key + span, reverse)


def test_kernel_on_an_empty_page():
    tree = DiskFirstFpTree(page_size=PAGE_SIZE)
    page = tree.store.page(tree.root_pid)
    assert page.leaf_for(5) is page.root and page.root.count == 0
    assert page.find(5) is None
    assert page.range_count(-1, 2**40) == (0, 0, False)
    check_kernel(tree, edge_probes([]))


@pytest.mark.parametrize("keyspec", [KEY4, KEY8], ids=["key4", "key8"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_matches_searchsorted_routing(keyspec, data):
    # NumPy compares uint64 keys with a Python int through float64, exact only
    # below 2**53 (see test_untraced_search_is_exact_for_uint64), so stored
    # keys stay far enough below it for every probe near them to be exact.
    top = min(keyspec.max_key, 2**52)
    keys = sorted(
        data.draw(
            st.lists(
                st.one_of(st.integers(0, 50), st.integers(0, top)),  # duplicates and extremes
                min_size=1,
                max_size=400,
            )
        )
    )
    tree = DiskFirstFpTree(TreeEnvironment(page_size=PAGE_SIZE, keyspec=keyspec))
    tree.bulkload(keys, list(range(1, len(keys) + 1)), fill=data.draw(st.sampled_from([0.6, 1.0])))
    check_kernel(tree, edge_probes(keys))


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**32 - 1), max_size=40).map(sorted),
    extra=st.integers(0, 5),
    probe=st.one_of(st.integers(-(2**33), 2**34), st.sampled_from([-1, 0, 2**32 - 1, 2**32])),
)
def test_untraced_searchsorted_equals_numpy(keys, extra, probe):
    """``traced_searchsorted`` with no tracer: ``bisect`` over ``keys[:count]``."""
    array = np.zeros(len(keys) + extra, dtype=np.uint32)
    array[: len(keys)] = keys
    for side in ("left", "right"):
        want = int(np.searchsorted(array[: len(keys)], probe, side=side))
        assert traced_searchsorted(array, len(keys), probe, 0, 4, side=side) == want
    with pytest.raises(ValueError):
        traced_searchsorted(array, len(keys), probe, 0, 4, side="middle")


def test_untraced_search_is_exact_for_uint64():
    """Where ``np.searchsorted`` rounds, the untraced search still equals the
    traced probe loop, which compares exact Python ints."""
    keys = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    probe = 2**63 - 1
    assert int(np.searchsorted(keys, probe, side="right")) == 2  # rounded to 2**63
    traced = Tracer(MemorySystem())
    for side in ("left", "right"):
        want = traced_searchsorted(keys, 3, probe, 0, 8, traced, side=side)
        assert want == 1
        assert traced_searchsorted(keys, 3, probe, 0, 8, side=side) == want
