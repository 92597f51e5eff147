"""Tests for the mini DBMS (heap table + index-only scans)."""

import numpy as np
import pytest

from repro.btree.context import TreeEnvironment
from repro.core import DiskFirstFpTree
from repro.dbms import DEFAULT_SCHEMA, HeapTable, MiniDbms
from repro.storage import PageStore
from repro.workloads.generator import KeyWorkload, build_mature_tree


class TestHeapTable:
    def test_schema_row_size_matches_paper(self):
        # (int, int, char(20), int, char(512)) = 544 bytes.
        assert DEFAULT_SCHEMA.row_bytes == 544

    def test_insert_and_fetch(self):
        store = PageStore(16384)
        table = HeapTable(store)
        tids = [table.insert_row(k, k * 2, k * 3) for k in range(100)]
        assert table.fetch(tids[42]) == (42, 84, 126)
        assert table.num_rows == 100

    def test_rows_per_page(self):
        store = PageStore(16384)
        table = HeapTable(store)
        assert table.rows_per_page == (16384 - 64) // 544

    def test_pages_allocated_on_demand(self):
        store = PageStore(16384)
        table = HeapTable(store)
        per_page = table.rows_per_page
        for k in range(per_page + 1):
            table.insert_row(k, 0, 0)
        assert table.num_pages == 2

    def test_fetch_invalid_tid(self):
        store = PageStore(16384)
        table = HeapTable(store)
        table.insert_row(1, 2, 3)
        with pytest.raises(KeyError):
            table.fetch(9999)

    def test_rows_iterator_matches_inserts(self):
        store = PageStore(16384)
        table = HeapTable(store)
        for k in range(50):
            table.insert_row(k, k + 1, k + 2)
        rows = list(table.rows())
        assert len(rows) == 50
        assert rows[10] == (10, 10, 11, 12)


class TestLoadRows:
    @staticmethod
    def columns(start, count):
        k1 = np.arange(start, start + count, dtype=np.int64)
        return k1, k1 * 2, k1 * 3

    def test_empty_input_is_a_noop(self):
        store = PageStore(4096)
        table = HeapTable(store)
        table.load_rows(*self.columns(0, 0))
        assert (table.num_rows, table.num_pages, store.allocations) == (0, 0, 0)

    def test_mismatched_columns_rejected(self):
        table = HeapTable(PageStore(4096))
        k1, k2, k3 = self.columns(0, 5)
        with pytest.raises(ValueError):
            table.load_rows(k1, k2, k3[:4])

    def test_continues_a_partial_tail_across_pages(self):
        store = PageStore(4096)
        table = HeapTable(store)
        per_page = table.rows_per_page
        head = [table.insert_row(k, k * 2, k * 3) for k in range(per_page // 2)]
        events = []
        store.write_observer = lambda event, pid: events.append((event, pid))
        start = len(head)
        count = 3 * per_page + 1  # crosses several page boundaries
        table.load_rows(*self.columns(start, count))
        store.write_observer = None
        loaded_pages = table.page_ids()
        assert len(loaded_pages) == -(-(start + count) // per_page) > 3
        assert [pid for event, pid in events if event == "alloc"] == loaded_pages[1:]
        assert [pid for event, pid in events if event == "dirty"] == loaded_pages
        # A later single-row append continues the same tuple-id sequence.
        last = table.insert_row(start + count, 0, 0)
        assert last == start + count
        assert [tid for tid, *__ in table.rows()] == list(range(start + count + 1))
        assert all(table.fetch(tid) == (tid, tid * 2, tid * 3) for tid in range(start + count))

    def test_matches_insert_row(self):
        k1, k2, k3 = self.columns(5, 100)
        bulk, single = HeapTable(PageStore(4096)), HeapTable(PageStore(4096))
        bulk.load_rows(k1, k2, k3)
        for row in zip(k1.tolist(), k2.tolist(), k3.tolist()):
            single.insert_row(*row)
        assert list(bulk.rows()) == list(single.rows())
        assert bulk.page_ids() == single.page_ids()
        assert bulk.num_rows == single.num_rows == 100


def per_row_build(num_rows, page_size, seed, mature, key_range):
    """Reference build: one scalar payload draw and one insert_row per row."""
    env = TreeEnvironment(page_size=page_size, buffer_pages=64)
    table = HeapTable(env.store)
    index = DiskFirstFpTree(env)
    keys, __ = KeyWorkload(num_rows, seed=seed).bulkload_arrays()
    rng = np.random.default_rng(seed + 1)
    lo, hi = key_range if key_range is not None else (None, None)
    stored = []
    for key in keys.tolist():
        value = int(rng.integers(0, 1 << 31))
        if (lo is None or key >= lo) and (hi is None or key < hi):
            table.insert_row(key, value, key % 997)
            stored.append(key)
    if mature:
        build_mature_tree(index, KeyWorkload(num_rows, seed=seed), bulk_fraction=0.7)
    else:
        index.bulkload(np.array(stored, dtype=keys.dtype), np.arange(1, len(stored) + 1))
    return env.store, table, index, stored


class TestBuildEquivalence:
    """MiniDbms's page-at-a-time build stores what the per-row build stores."""

    NUM_ROWS = 2_500
    SEED = 5

    @staticmethod
    def cut(fraction):
        keys = KeyWorkload(TestBuildEquivalence.NUM_ROWS, seed=TestBuildEquivalence.SEED).keys
        return int(keys[int(keys.size * fraction)])

    @pytest.mark.parametrize("page_size", [4096, 16384])
    @pytest.mark.parametrize(
        "mature,key_range",
        [
            (False, None),
            (True, None),
            (False, "first"),
            (False, "middle"),
            (False, "last"),
        ],
    )
    def test_matches_per_row_build(self, page_size, mature, key_range):
        key_range = {
            None: None,
            "first": (None, self.cut(1 / 3)),
            "middle": (self.cut(1 / 3), self.cut(2 / 3)),
            "last": (self.cut(2 / 3), None),
        }[key_range]
        db = MiniDbms(
            num_rows=self.NUM_ROWS, num_disks=4, page_size=page_size, seed=self.SEED,
            mature=mature, key_range=key_range,
        )
        store, table, index, stored = per_row_build(
            self.NUM_ROWS, page_size, self.SEED, mature, key_range
        )
        assert list(db.table.rows()) == list(table.rows())
        assert db.table.page_ids() == table.page_ids()
        assert (db.store.allocations, db.store.num_pages) == (store.allocations, store.num_pages)
        assert db.index.num_pages == index.num_pages
        assert db.stored_keys.tolist() == stored
        # The one shared workload still holds the full key universe.
        universe = KeyWorkload(self.NUM_ROWS, seed=self.SEED).keys
        assert np.array_equal(db._workload.keys, universe)
        for key in stored[:: max(1, len(stored) // 50)] + [stored[-1], stored[-1] + 1]:
            tid = db.index.search(key)
            assert tid == index.search(key)
            if tid is not None:
                assert db.table.fetch(tid - 1) == table.fetch(tid - 1)
                assert db.table.fetch(tid - 1)[0] == key

    def test_one_payload_draw_equals_the_scalar_stream(self):
        bulk, scalar = np.random.default_rng(8), np.random.default_rng(8)
        drawn = bulk.integers(0, 1 << 31, size=1_000)
        assert drawn.tolist() == [int(scalar.integers(0, 1 << 31)) for __ in range(1_000)]
        # The generator ends in the same state, so later draws agree too.
        assert bulk.integers(0, 1 << 31, size=10).tolist() == scalar.integers(
            0, 1 << 31, size=10
        ).tolist()


class TestMiniDbms:
    @pytest.fixture(scope="class")
    def db(self):
        return MiniDbms(num_rows=20_000, num_disks=8, seed=3)

    def test_count_star_counts_every_row(self, db):
        stats = db.count_star()
        assert stats.row_count == 20_000

    def test_in_memory_floor_is_fastest(self, db):
        plain = db.count_star(prefetchers=0)
        warm = db.count_star(in_memory=True)
        assert warm.elapsed_us < plain.elapsed_us
        assert warm.disk_reads == 0

    def test_prefetchers_speed_up_scan(self, db):
        plain = db.count_star(prefetchers=0)
        fetched = db.count_star(prefetchers=8)
        assert fetched.elapsed_us < plain.elapsed_us
        assert fetched.row_count == plain.row_count

    def test_more_prefetchers_monotone_improvement(self, db):
        times = [db.count_star(prefetchers=n).elapsed_us for n in (1, 4, 8)]
        assert times[2] <= times[0]

    def test_smp_parallelism_speeds_up(self, db):
        serial = db.count_star(smp_degree=1, prefetchers=4)
        parallel = db.count_star(smp_degree=4, prefetchers=4)
        assert parallel.elapsed_us < serial.elapsed_us
        assert parallel.row_count == serial.row_count

    def test_prefetch_approaches_in_memory(self, db):
        warm = db.count_star(in_memory=True, smp_degree=2)
        fetched = db.count_star(prefetchers=12, smp_degree=2)
        plain = db.count_star(prefetchers=0, smp_degree=2)
        # The prefetched scan lands much closer to the floor than to plain.
        assert fetched.elapsed_us - warm.elapsed_us < (plain.elapsed_us - warm.elapsed_us) / 2

    def test_lookup_through_index(self, db):
        workload_key = int(db._workload.keys[123])
        row = db.lookup(workload_key)
        assert row is not None
        assert row[0] == workload_key

    def test_invalid_parameters(self, db):
        with pytest.raises(ValueError):
            db.count_star(smp_degree=0)
        with pytest.raises(ValueError):
            db.count_star(prefetchers=-1)


class TestIndexKinds:
    @pytest.mark.parametrize("kind", ["disk", "micro", "fp-disk", "fp-cache"])
    def test_count_star_correct_with_any_index(self, kind):
        db = MiniDbms(num_rows=5000, num_disks=4, seed=2, mature=False, index_kind=kind)
        stats = db.count_star(smp_degree=2, prefetchers=2)
        assert stats.row_count == 5000

    def test_standard_btree_also_benefits_from_prefetchers(self):
        """The paper's DB2 experiment used standard B+-Trees (Section 4.3.3)."""
        db = MiniDbms(num_rows=20_000, num_disks=8, seed=2, index_kind="disk", page_size=4096)
        plain = db.count_star(prefetchers=0)
        fetched = db.count_star(prefetchers=8)
        assert fetched.elapsed_us < plain.elapsed_us

    def test_unknown_index_kind_rejected(self):
        with pytest.raises(ValueError):
            MiniDbms(num_rows=100, index_kind="btree-9000")
