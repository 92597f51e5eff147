"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` and ``layers.json`` name the same per-layer metrics.
2. The span wrappers reach every import site: ``repro.core.inpage`` binds
   ``optimize_disk_first`` with a from-import, so a wrapper installed only
   in ``repro.core.optimizer`` would count zero calls from tree builds.
3. The zero/non-zero check flags a layer that reads the wrong way.
4. The benchmark has not forked the program's semantics: at matched
   parameters, the cache-sim fp-disk cycles equal ``measure_operations``
   driven exactly as the figure experiments drive it, and the serve-read
   latency rung issues, completes and sheds what ``serve_sweep`` does.
5. The simulated end-to-end metrics of every workload, for each seed in
   ``baseline.json``, equal the recorded ones.  A change that only speeds
   the simulator up must keep them identical; one that changes them on
   purpose records a new baseline and says why.

Takes a few minutes; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from layers import LAYER_MAP, check_zero_map  # noqa: E402
from spans import LayerPatches, SpanLog, references  # noqa: E402

from repro.bench.cache_runner import build_tree, measure_operations  # noqa: E402
from repro.bench.serving import serve_sweep  # noqa: E402
from repro.mem.hierarchy import MemorySystem  # noqa: E402

SIMULATED_END_TO_END = ("served_ops_s", "sim_mean_ms", "sim_p99_ms", "ok_frac")


def check_metric_lists() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    mapped = set(LAYER_MAP)
    if declared != mapped:
        return [f"per-layer metrics: only in BENCHMARK.json {sorted(declared - mapped)}, "
                f"only in layers.json {sorted(mapped - declared)}"]
    return []


def check_import_sites() -> list[str]:
    import repro.core.inpage as inpage
    import repro.core.optimizer as optimizer

    failures = []
    original = optimizer.optimize_disk_first
    if not any(module is inpage for module, __ in references(original)):
        failures.append("repro.core.inpage no longer binds optimize_disk_first itself; "
                        "update this test")
    log = SpanLog()
    with LayerPatches(log) as patches:
        if inpage.optimize_disk_first is original:
            failures.append("repro.core.inpage.optimize_disk_first was not wrapped")
        stale = patches.stale_references()
        if stale:
            failures.append(f"unwrapped references remain: {stale}")
        keys, tids = workloads.KeyWorkload(2_000, seed=1).bulkload_arrays()
        build_tree("fp-disk", keys, tids, page_size=4096)
    calls = log.summary().get("core.optimizer", {}).get("calls", 0)
    if calls == 0:
        failures.append("building an fp-disk tree recorded no optimizer call")
    if optimizer.optimize_disk_first is not original or inpage.optimize_disk_first is not original:
        failures.append("leaving LayerPatches did not restore optimize_disk_first")
    return failures


def check_zero_map_flags() -> list[str]:
    metrics = {name: 1 for name in LAYER_MAP}
    found = check_zero_map("cache-sim", metrics)
    if not any(name.startswith("des.events ") for name in found):
        return ["check_zero_map accepted des.events != 0 on cache-sim"]
    metrics = {name: 0 for name in LAYER_MAP}
    if not any(f.startswith("shard.plan_s ") for f in check_zero_map("fleet-write", metrics)):
        return ["check_zero_map accepted shard.plan_s == 0 on fleet-write"]
    return []


def check_cache_sim_fork(seed: int, result) -> list[str]:
    p = workloads.CACHE_SIM
    keys, tids, picks, pairs, ranges = workloads.cache_sim_inputs(seed)
    mem = MemorySystem()
    tree = build_tree("fp-disk", keys, tids, fill=p["fill"], page_size=p["page_size"], mem=mem)
    measured = {
        "search": measure_operations(mem, tree.search, picks),
        "insert": measure_operations(mem, lambda kv: tree.insert(kv[0], kv[1]), pairs),
        "scan": measure_operations(mem, lambda r: tree.range_scan(r[0], r[1]), ranges),
    }
    failures = []
    for op, phase in measured.items():
        ours = result.sim[f"sim_cycles_per_{op}.fp-disk"]
        if ours != phase.cycles_per_op:
            failures.append(f"cache-sim fp-disk {op}: {ours} cycles, program {phase.cycles_per_op}")
    return failures


def check_serve_read_fork(seed: int, result) -> list[str]:
    p = workloads.SERVE_READ
    rate = p["latency_rung"]
    mix = p["mix"]
    row = serve_sweep(
        num_rows=p["num_rows"], num_disks=p["num_disks"], page_size=p["page_size"],
        offered_loads=(rate,), duration_s=p["ops_per_rung"] / rate,
        max_concurrency=p["max_concurrency"], queue_depth=p["queue_depth"],
        pool_frames=p["pool_frames"], lookup_weight=mix.lookup, scan_weight=mix.scan,
        insert_weight=mix.insert, scan_span=mix.scan_span, seed=seed,
    ).rows[0]
    program = (row["issued"], row["completed"], row["shed"])
    ours = result.sim[f"rung{rate}"]
    if ours != program:
        return [f"serve-read rung {rate}: issued/completed/shed {ours}, serve_sweep {program}"]
    return []


def check_baseline(results: dict) -> list[str]:
    baseline = json.loads((HERE / "baseline.json").read_text())
    failures = []
    for workload, by_seed in baseline["results"].items():
        for seed, recorded in by_seed.items():
            result = results.get((workload, int(seed)))
            if result is None:
                result = workloads.WORKLOADS[workload](int(seed))
                results[(workload, int(seed))] = result
            failures.extend(result.violations)
            for name in SIMULATED_END_TO_END:
                want = recorded["end_to_end"][name]
                if result.sim[name] != want:
                    failures.append(f"{workload} seed {seed}: {name} {result.sim[name]!r}, "
                                    f"baseline {want!r}")
    return failures


def main() -> int:
    seed = 11
    results = {
        (name, seed): workloads.WORKLOADS[name](seed) for name in ("cache-sim", "serve-read")
    }
    checks = {
        "metric lists": check_metric_lists(),
        "import sites": check_import_sites(),
        "zero map": check_zero_map_flags(),
        "cache-sim fork": check_cache_sim_fork(seed, results[("cache-sim", seed)]),
        "serve-read fork": check_serve_read_fork(seed, results[("serve-read", seed)]),
        "baseline": check_baseline(results),
    }
    for name, failures in checks.items():
        print(f"{'ok  ' if not failures else 'FAIL'} {name}")
        for failure in failures:
            print(f"     {failure}")
    return 1 if any(checks.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
