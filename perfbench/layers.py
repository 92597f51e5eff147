"""Per-layer metrics of a traced pass, and the zero/non-zero map they must obey.

``layers.json`` records, for every per-layer metric of ``BENCHMARK.json``,
which end-to-end metrics it should move (``moves``), on which workloads
heavily or lightly, and on which workloads it must read zero
(``zero_on``: the workload bypasses that layer) or non-zero
(``nonzero_on``).  :func:`check_zero_map` enforces the last two, so a
wrapper that silently stopped counting, or a workload that stopped
reaching a layer, fails the traced run.
"""

from __future__ import annotations

import json
from pathlib import Path

from spans import layer_of

LAYER_MAP = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())

KINDS = ("disk", "micro", "fp-disk", "fp-cache")
#: Span-name suffix of each tree operation, by metric suffix.
TREE_OPS = {"search": "search", "insert": "insert", "scan": "range_scan"}
#: Per-layer metrics that are simulated results or program counters, read
#: straight from the pass; absent on a workload that bypasses the layer.
SIMULATED = (
    "core.pages_allocated",
    *(f"sim_cycles_per_{op}.{kind}" for kind in KINDS for op in TREE_OPS),
    *(f"mem.{n}" for n in (
        "accesses", "l1_hits", "l2_hits", "memory_fetches", "prefetches_issued",
        "prefetch_covered", "busy_cycles", "dcache_stall_cycles", "other_stall_cycles",
    )),
    *(f"storage.buffer.{n}" for n in ("hits", "misses", "hit_rate", "evict_flushes")),
    *(f"storage.disk.{n}" for n in ("reads", "writes", "busy_us", "mean_util")),
    *(f"storage.prefetch.{n}" for n in (
        "demand_reads", "demand_hits", "demand_covered", "prefetches", "suppressed",
    )),
    "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms", "serve.shed", "serve.timeouts",
    "serve.failed_frac", "serve.lookup.p99_ms", "serve.scan.p99_ms", "serve.insert.p99_ms",
    "serve.knee.p99_ms", "serve.capacity_ops_s",
    *(f"shard.{n}" for n in (
        "scan_fragments", "cross_shard_scans", "rr_inserts", "fragment_timeouts", "load_imbalance",
    )),
)


def layer_metrics(sim: dict, summary: dict, overhead: float, spans: int) -> dict:
    """Every per-layer metric from one traced pass."""

    def span(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    def self_s(layer: str) -> float:
        return sum(v["self_s"] for name, v in summary.items() if layer_of(name) == layer)

    m = {name: sim.get(name, 0) for name in SIMULATED}
    m["serve.p50_ms"] = sim.get("sim_p50_ms", 0)
    m["core.optimizer.calls"] = span("core.optimizer", "calls")
    m["core.optimizer.self_s"] = self_s("core.optimizer")
    m["dbms.builds"] = span("dbms.build", "calls")
    m["dbms.build_s"] = span("dbms.build", "inclusive_s")
    m["dbms.build.self_s"] = span("dbms.build", "self_s")
    m["dbms.heap_load_s"] = span("dbms.heap_insert", "inclusive_s")
    m["dbms.rows_loaded"] = span("dbms.heap_insert", "calls")
    m["dbms.self_s"] = self_s("dbms")
    m["core.bulkload_s"] = sum(span(f"core.{kind}.bulkload", "inclusive_s") for kind in KINDS)
    m["core.self_s"] = self_s("core")
    for kind in KINDS:
        for op, method in TREE_OPS.items():
            m[f"core.{kind}.{op}_s"] = span(f"core.{kind}.{method}", "inclusive_s")
    mem_s = span("mem.access", "inclusive_s")
    m["mem.prefetch_useful_ratio"] = (
        m["mem.prefetch_covered"] / m["mem.prefetches_issued"] if m["mem.prefetches_issued"] else 0
    )
    m["mem.calls"] = span("mem.access", "calls")
    m["mem.self_s"] = self_s("mem")
    m["mem.accesses_per_s"] = m["mem.accesses"] / mem_s if mem_s else 0
    m["des.events"] = span("des.step", "calls")
    m["des.run_s"] = span("des.run", "inclusive_s")
    m["des.events_per_s"] = m["des.events"] / m["des.run_s"] if m["des.run_s"] else 0
    m["des.self_s"] = self_s("des")
    m["storage.buffer.access_s"] = span("storage.buffer.access", "inclusive_s")
    for layer in ("storage.buffer", "storage.disk", "storage.prefetch", "serve", "shard"):
        m[f"{layer}.self_s"] = self_s(layer)
    m["shard.plan_s"] = span("shard.plan", "inclusive_s")
    m["shard.route_s"] = span("shard.route", "self_s")
    m["workloads.opgen_s"] = (
        span("workloads.next_op", "inclusive_s") + span("workloads.sample_ops", "inclusive_s")
    )
    m["bench.trace_overhead_frac"] = overhead
    m["bench.spans"] = spans
    return m


def check_zero_map(workload: str, metrics: dict) -> list[str]:
    """Violations of the predicted zero/non-zero reading of each layer metric."""
    found = []
    for name, entry in LAYER_MAP.items():
        value = metrics[name]
        if workload in entry["zero_on"] and value != 0:
            found.append(f"{name} = {value}, predicted zero on {workload}")
        if workload in entry["nonzero_on"] and value == 0:
            found.append(f"{name} = 0, predicted non-zero on {workload}")
    return found
