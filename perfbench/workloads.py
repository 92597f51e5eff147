"""The benchmark's three workloads, each one pass of set-up and measured work.

Every workload drives the program through the same public constructors its
experiment runners use (``cache_runner.build_tree``/``measure_operations``,
``MiniDbms`` + ``DbmsServer`` + ``OpenLoopLoadGenerator`` as in
``serve_sweep``, ``BoundaryPlanner`` + ``build_fleet`` as in
``shard_sweep``) and re-implements none of them.  A pass returns wall
times, the simulated results (a pure function of the seed) and every
correctness violation it found.

Why these three (one line each is also in ``BENCHMARK.json``):

* ``cache-sim`` — the paper's cache experiment on all four indexes: loads
  ``mem`` and the ``core``/``baselines`` descent code, and bypasses ``des``,
  ``storage.disk``, ``serve`` and ``shard``.  Its set-up is almost all
  ``core.optimizer``.
* ``serve-read`` — one disk- and pool-bound server on an offered-load
  ladder, a fresh database per rung: ``dbms`` build, ``des``,
  ``storage.*`` and ``serve``, with no ``mem`` and no ``shard``.
* ``fleet-write`` — a write-heavy zipf fleet of four shards: the same
  storage and serve layers used differently (splits beside reads, hot set
  mostly in the pools, scans routed by key range), plus ``shard``, and the
  slowest database build.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.bench.cache_runner import PAPER_INDEX_ORDER, build_tree, measure_operations
from repro.dbms.engine import MiniDbms
from repro.mem.hierarchy import MemorySystem
from repro.serve import DbmsServer, OpenLoopLoadGenerator
from repro.shard import BoundaryPlanner, build_fleet
from repro.workloads import KeyWorkload, OpMix, sample_ops

#: The modelled core runs at 1 GHz (Table 1 of the paper; see repro.mem.config),
#: so one simulated cycle is one simulated nanosecond.
CPU_HZ = 1e9

CACHE_SIM = {
    "num_keys": 300_000,
    "page_size": 16 * 1024,
    "fill": 0.7,
    "searches": 2_000,
    "inserts": 2_000,
    "scans": 100,
    "scan_span": 1_000,
}

SERVE_READ = {
    "num_rows": 200_000,
    "num_disks": 8,
    "page_size": 4096,
    "pool_frames": 64,
    "max_concurrency": 16,
    "queue_depth": 48,
    "mix": OpMix(lookup=0.70, scan=0.20, insert=0.10, scan_span=64),
    "rungs": (150, 300, 450, 600, 900),
    #: Each rung offers the same number of operations, so its simulated
    #: duration is ops_per_rung / rate.
    "ops_per_rung": 4_000,
    #: End-to-end latency is read at this rung: near the knee (450) the
    #: exact p99 moves by a third between seeds, too much to gate on.
    "latency_rung": 300,
    "knee_rung": 450,
    #: Rungs well below the knee (~520 ops/s) must serve everything they are
    #: offered.  At 450 a Poisson burst can still overflow the 48-deep
    #: queue (seed 8 sheds 11 of 4000), which is admission control working.
    "below_knee": (150, 300),
    "p99_limit_ms": 100.0,
}

FLEET_WRITE = {
    "num_rows": 200_000,
    "shards": 4,
    "num_disks": 2,
    "page_size": 4096,
    "pool_frames": 64,
    "max_concurrency": 8,
    "queue_depth": 48,
    "distribution": "zipf:1.2",
    "mix": OpMix(lookup=0.45, scan=0.15, insert=0.40, scan_span=64),
    #: Boundaries are planned from this many sampled ops.  From 4096, the
    #: planned cuts vary enough between seeds that the exact p99 spread
    #: (IQR / median) over 30 seeds was 0.22; from 32768 it was 0.10.
    "plan_sample": 32_768,
    "rate": 600,
    "duration_s": 30.0,
}


@dataclass
class PassResult:
    """One pass of a workload: wall times, simulated results, violations."""

    setup_s: float = 0.0
    measured_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Simulated results and program counters: identical for a given seed.
    sim: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """The workload's own wall time: set-up plus measured phases."""
        return self.setup_s + self.measured_s

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)


@contextmanager
def timed(result: PassResult, phase: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        setattr(result, phase, getattr(result, phase) + time.perf_counter() - start)


def exact_percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


# -- cache-sim -------------------------------------------------------------------------


def cache_sim_inputs(seed: int):
    """(keys, tids, search keys, (key, tid) inserts, scan ranges) for a seed."""
    p = CACHE_SIM
    workload = KeyWorkload(p["num_keys"], seed=seed)
    keys, tids = workload.bulkload_arrays()
    picks = [int(k) for k in workload.search_keys(p["searches"])]
    new_keys, new_tids = workload.insert_keys(p["inserts"])
    # insert_keys draws positions with replacement; keep each new key once.
    __, first = np.unique(new_keys, return_index=True)
    first.sort()
    pairs = list(zip(new_keys[first].tolist(), new_tids[first].tolist()))
    ranges = workload.range_scans(p["scans"], p["scan_span"])
    return keys, tids, picks, pairs, ranges


def cache_sim(seed: int) -> PassResult:
    p = CACHE_SIM
    result = PassResult()
    keys, tids, picks, pairs, ranges = cache_sim_inputs(seed)
    sim = result.sim
    mem_totals: dict[str, float] = {}
    fp_cycles: list[float] = []
    pages = 0
    for kind in PAPER_INDEX_ORDER:
        with timed(result, "setup_s"):
            mem = MemorySystem()
            tree = build_tree(
                kind, keys, tids, fill=p["fill"], page_size=p["page_size"], mem=mem
            )
        phases = (
            ("search", tree.search, picks),
            ("insert", lambda kv: tree.insert(kv[0], kv[1]), pairs),
            ("scan", lambda r: tree.range_scan(r[0], r[1]), ranges),
        )
        outputs = {}
        for op_name, operation, arguments in phases:
            cycles: list[float] = []
            out: list = []

            def observed(argument, operation=operation, cycles=cycles, out=out):
                before = mem.stats.total_cycles
                out.append(operation(argument))
                cycles.append(mem.stats.total_cycles - before)

            with timed(result, "measured_s"):
                phase = measure_operations(mem, observed, arguments)
            result.attempted += phase.operations
            outputs[op_name] = out
            sim[f"sim_cycles_per_{op_name}.{kind}"] = phase.cycles_per_op
            result.check(
                math.isclose(sum(cycles), phase.total_cycles, rel_tol=1e-9),
                f"{kind} {op_name}: per-op cycles do not add up to the phase total",
            )
            if kind.startswith("fp-"):
                fp_cycles.extend(cycles)
            for name in (
                "accesses", "l1_hits", "l2_hits", "memory_fetches", "prefetches_issued",
                "prefetch_covered", "busy_cycles", "dcache_stall_cycles", "other_stall_cycles",
            ):
                mem_totals[name] = mem_totals.get(name, 0) + getattr(phase.stats, name)
        pages += tree.num_pages
        with mem.paused():
            _check_cache_tree(result, kind, tree, keys, tids, picks, pairs, ranges, outputs)

    for name, value in mem_totals.items():
        sim[f"mem.{name}"] = value
    sim["core.pages_allocated"] = pages
    fp_seconds = sum(fp_cycles) / CPU_HZ
    sim["served_ops_s"] = len(fp_cycles) / fp_seconds
    sim["sim_mean_ms"] = float(np.mean(fp_cycles)) / CPU_HZ * 1e3
    sim["sim_p99_ms"] = exact_percentile(fp_cycles, 0.99) / CPU_HZ * 1e3
    sim["ok_frac"] = 1.0 - result.failed / result.attempted
    return result


def _check_cache_tree(result, kind, tree, keys, tids, picks, pairs, ranges, outputs) -> None:
    """Searches find their bulkloaded tid, inserts are found, scans return their span."""
    expected = tids[np.searchsorted(keys, picks)].tolist()
    wrong = sum(1 for got, want in zip(outputs["search"], expected) if got != want)
    lost = sum(1 for key, tid in pairs if tree.search(key) != tid)
    inserted = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    bad_scans = 0
    for (lo, hi), got in zip(ranges, outputs["scan"]):
        a, b = np.searchsorted(keys, [lo, hi + 1])
        c, d = np.searchsorted(inserted[:, 0], [lo, hi + 1])
        count = int(b - a + d - c)
        tid_sum = int(tids[a:b].astype(np.int64).sum() + inserted[c:d, 1].sum())
        if (got.count, got.tid_sum) != (count, tid_sum):
            bad_scans += 1
    result.failed += wrong + lost + bad_scans
    result.check(wrong == 0, f"{kind}: {wrong} searches returned the wrong tid")
    result.check(lost == 0, f"{kind}: {lost} inserted keys not found afterwards")
    result.check(bad_scans == 0, f"{kind}: {bad_scans} scans did not return exactly their span")
    try:
        tree.validate()
    except AssertionError as exc:
        result.check(False, f"{kind}: validate() failed: {exc}")


# -- serving ---------------------------------------------------------------------------


def _check_requests(result: PassResult, requests, scan_span: int, exact_scans: bool, label: str):
    """Outcome-level correctness of served requests; returns the ok ones."""
    ok = [r for r in requests if r.outcome == "ok"]
    wrong = 0
    for r in ok:
        if r.kind == "lookup" or r.kind == "insert":
            wrong += r.rows != 1
        elif r.kind == "scan":
            wrong += r.rows != scan_span if exact_scans else r.rows < scan_span
    failed = sum(1 for r in requests if r.outcome == "failed")
    result.failed += wrong + failed
    result.check(wrong == 0, f"{label}: {wrong} requests returned the wrong number of rows")
    result.check(failed == 0, f"{label}: {failed} requests failed")
    return ok


def _latency(result: PassResult, stats, ok, waits) -> None:
    """Exact latency percentiles from the requests, checked against the program's histogram.

    ``waits`` are the admission-queue waits of the server-side requests.
    """
    latencies = [r.latency_us for r in ok]
    p99 = exact_percentile(latencies, 0.99)
    result.sim["sim_p99_ms"] = p99 / 1e3
    result.sim["sim_p50_ms"] = exact_percentile(latencies, 0.50) / 1e3
    result.sim["sim_mean_ms"] = float(np.mean(latencies)) / 1e3
    hist = stats.latency_histogram("all")
    upper = hist.quantile(0.99)
    bounds = (0.0, *hist.bounds)
    lower = max(b for b in bounds if b < upper) if upper > 0 else 0.0
    result.check(
        hist.count == len(latencies) and lower < p99 <= upper,
        f"exact p99 {p99:.1f}us outside the histogram's p99 bucket ({lower}, {upper}]",
    )
    for kind in ("lookup", "scan", "insert"):
        of_kind = [r.latency_us for r in ok if r.kind == kind]
        result.sim[f"serve.{kind}.p99_ms"] = exact_percentile(of_kind, 0.99) / 1e3
    result.sim["serve.queue_wait_p50_ms"] = exact_percentile(waits, 0.50) / 1e3
    result.sim["serve.queue_wait_p99_ms"] = exact_percentile(waits, 0.99) / 1e3


def _storage_counters(totals: dict, server: DbmsServer) -> None:
    pool, disks, reader = server.pool, server.disks, server.reader
    for name, value in (
        ("storage.buffer.hits", pool.hits),
        ("storage.buffer.misses", pool.misses),
        ("storage.buffer.evict_flushes", pool.evict_flushes),
        ("storage.disk.reads", disks.total_reads),
        ("storage.disk.writes", disks.total_writes),
        ("storage.disk.busy_us", sum(d.busy_time_us for d in disks.disks)),
        ("storage.prefetch.demand_reads", reader.demand_reads),
        ("storage.prefetch.demand_hits", reader.demand_hits),
        ("storage.prefetch.demand_covered", reader.demand_covered),
        ("storage.prefetch.prefetches", reader.prefetches),
        ("storage.prefetch.suppressed", reader.prefetches_suppressed),
        ("core.pages_allocated", server.db.index.num_pages),
        ("disk_util_sum", server.mean_utilization()),
        ("servers", 1),
    ):
        totals[name] = totals.get(name, 0) + value


def _finish_storage(sim: dict, totals: dict) -> None:
    servers = totals.pop("servers")
    sim["storage.disk.mean_util"] = totals.pop("disk_util_sum") / servers
    sim.update(totals)
    accesses = sim["storage.buffer.hits"] + sim["storage.buffer.misses"]
    sim["storage.buffer.hit_rate"] = sim["storage.buffer.hits"] / accesses if accesses else 0.0


def _insert_keys(ok) -> list[int]:
    return [r.op[1] for r in ok if r.kind == "insert"]


def serve_read(seed: int) -> PassResult:
    p = SERVE_READ
    result = PassResult()
    sim = result.sim
    totals: dict = {}
    issued = ok_count = shed = timeouts = 0
    capacity = 0
    for rate in p["rungs"]:
        with timed(result, "setup_s"):
            db = MiniDbms(
                num_rows=p["num_rows"], num_disks=p["num_disks"], page_size=p["page_size"],
                seed=seed, mature=False,
            )
            server = DbmsServer(
                db, max_concurrency=p["max_concurrency"], queue_depth=p["queue_depth"],
                pool_frames=p["pool_frames"], seed=seed,
            )
        generator = OpenLoopLoadGenerator(
            server, rate_ops_s=rate, duration_s=p["ops_per_rung"] / rate, mix=p["mix"],
            seed=seed,
        )
        with timed(result, "measured_s"):
            stats = generator.run()
        label = f"rung {rate}"
        result.check(stats.conserved(), f"{label}: conservation violated at drain")
        result.check(stats.in_flight == 0, f"{label}: {stats.in_flight} requests never finished")
        result.check(
            stats.issued == generator.issued == len(server.requests),
            f"{label}: server issued {stats.issued}, generator {generator.issued}",
        )
        ok = _check_requests(result, server.requests, p["mix"].scan_span, True, label)
        lost = sum(1 for key in _insert_keys(ok) if db.index.search(key) is None)
        result.failed += lost
        result.check(lost == 0, f"{label}: {lost} acknowledged inserts not in the index")
        if rate in p["below_knee"]:
            result.check(
                stats.shed_count == stats.timeouts == 0,
                f"{label}: shed {stats.shed_count}, timed out {stats.timeouts} below the knee",
            )
        p99_ms = exact_percentile([r.latency_us for r in ok], 0.99) / 1e3
        if stats.shed_count == 0 and p99_ms <= p["p99_limit_ms"]:
            capacity = max(capacity, rate)
        if rate == p["latency_rung"]:
            waits = [r.queue_wait_us for r in ok if r.admitted_at >= 0]
            _latency(result, stats, ok, waits)
        if rate == p["knee_rung"]:
            sim["serve.knee.p99_ms"] = p99_ms
        if rate == p["rungs"][-1]:
            sim["served_ops_s"] = stats.throughput_ops_s(server.env.now)
        result.attempted += stats.issued
        sim[f"rung{rate}"] = (stats.issued, stats.completed, stats.shed_count)
        issued += stats.issued
        ok_count += len(ok)
        shed += stats.shed_count
        timeouts += stats.timeouts
        _storage_counters(totals, server)
    _finish_storage(sim, totals)
    sim["serve.capacity_ops_s"] = capacity
    sim["serve.shed"] = shed
    sim["serve.timeouts"] = timeouts
    sim["ok_frac"] = ok_count / issued
    sim["serve.failed_frac"] = 1.0 - ok_count / issued
    return result


def fleet_write(seed: int) -> PassResult:
    p = FLEET_WRITE
    result = PassResult()
    sim = result.sim
    mix = p["mix"]
    with timed(result, "setup_s"):
        universe = KeyWorkload(p["num_rows"], seed=seed)
        sample = sample_ops(
            universe.keys.size, mix, distribution=p["distribution"],
            count=p["plan_sample"], seed=seed,
        )
        plan = BoundaryPlanner(universe.keys, p["shards"]).optimized(sample)
        router = build_fleet(
            p["num_rows"], plan, num_disks=p["num_disks"], page_size=p["page_size"],
            db_seed=seed, max_concurrency=p["max_concurrency"], queue_depth=p["queue_depth"],
            pool_frames=p["pool_frames"], seed=seed,
        )
    generator = OpenLoopLoadGenerator(
        router, rate_ops_s=p["rate"], duration_s=p["duration_s"], mix=mix, seed=seed,
        distribution=p["distribution"],
    )
    with timed(result, "measured_s"):
        generator.start()
        router.run(until=p["duration_s"] * 1e6 / 2)
        result.check(_planes_conserved(router), "conservation violated mid-run")
        router.run()
    result.check(_planes_conserved(router), "conservation violated at drain")
    stats = router.stats  # the router plane: one entry per client op
    result.check(stats.in_flight == 0, f"{stats.in_flight} routed requests never finished")
    result.check(
        stats.issued == generator.issued == len(router.requests),
        f"router issued {stats.issued}, generator {generator.issued}",
    )
    result.check(
        stats.shed_count == stats.timeouts == 0,
        f"shed {stats.shed_count}, timed out {stats.timeouts} below the knee",
    )
    ok = _check_requests(result, router.requests, mix.scan_span, False, "fleet")
    lost = sum(
        1 for key in _insert_keys(ok)
        if router.shards[plan.shard_for_key(key)].db.index.search(key) is None
    )
    result.failed += lost
    result.check(lost == 0, f"{lost} acknowledged inserts not in their shard's index")
    waits = [
        r.queue_wait_us for shard in router.shards for r in shard.requests
        if r.admitted_at >= 0
    ]
    _latency(result, stats, ok, waits)
    result.attempted += stats.issued
    totals: dict = {}
    for shard in router.shards:
        _storage_counters(totals, shard)
    _finish_storage(sim, totals)
    issued_per_shard = [shard.stats.issued for shard in router.shards]
    sim.update({
        "served_ops_s": stats.throughput_ops_s(router.env.now),
        "ok_frac": len(ok) / stats.issued,
        "serve.failed_frac": 1.0 - len(ok) / stats.issued,
        "serve.shed": stats.shed_count,
        "serve.timeouts": stats.timeouts,
        "shard.scan_fragments": router.scan_fragments,
        "shard.cross_shard_scans": router.cross_shard_scans,
        "shard.rr_inserts": router.rr_inserts,
        "shard.fragment_timeouts": router.fragment_timeouts,
        "shard.load_imbalance": max(issued_per_shard) / float(np.mean(issued_per_shard)),
    })
    return result


def _planes_conserved(router) -> bool:
    """Conservation on the router plane, every shard plane and the merged fleet."""
    planes = [router.stats, *(shard.stats for shard in router.shards), router.fleet_stats()]
    return all(plane.conserved() for plane in planes)


WORKLOADS = {
    "cache-sim": cache_sim,
    "serve-read": serve_read,
    "fleet-write": fleet_write,
}
