"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cache-sim --seed 11 --seconds 30 --trace 0

``--trace 0`` repeats whole passes of the workload (set-up included) while
another one fits in ``--seconds``, and makes at least two.  It checks every
pass for correctness and for identical simulated results, and prints each
end-to-end metric of ``BENCHMARK.json``: wall-clock ones as the median over
passes, simulated ones (a pure function of the seed) from the first pass.

``--trace 1`` runs two untraced passes and one pass with a span around
every call into the program's layers (see ``spans.py``), writes the spans
to ``.perfbench/`` and prints each per-layer metric of ``BENCHMARK.json``.
It also checks that tracing changed no simulated result, that no import
site of a wrapped function was missed, and that each layer metric is zero
or non-zero on this workload as ``layers.json`` predicts.

The last line of standard output is always the JSON result.  Any
correctness violation is listed on standard error and the exit code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Untraced passes before the traced one in a ``--trace 1`` run; the first
#: one also absorbs lazy imports and first-call costs.
UNTRACED_BEFORE_TRACE = 2
#: Fewest passes an untraced run makes, however short ``--seconds`` is.
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One process, one core: no BLAS thread pool spinning beside the simulator.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = WORKLOADS[args.workload]
    if args.trace:
        passes, metrics, violations = traced_run(run, args)
        declared = spec["per_layer"]
    else:
        passes, metrics, violations = untraced_run(run, args)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for message in violations:
        print(f"perfbench: {args.workload} seed {args.seed}: {message}", file=sys.stderr)
    correct = not violations
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            m["name"]: {"value": _number(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        } if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _number(value):
    """A plain Python number for JSON (NumPy scalars included)."""
    return value.item() if hasattr(value, "item") else value


def _violations(passes) -> list[str]:
    """Every pass's violations, plus any simulated result that differs between passes."""
    found = [v for p in passes for v in p.violations]
    first = passes[0].sim
    for i, p in enumerate(passes[1:], start=2):
        changed = sorted(k for k in set(first) | set(p.sim) if first.get(k) != p.sim.get(k))
        if changed:
            found.append(f"pass {i} simulated different results than pass 1: {changed}")
    return found


def untraced_run(run, args):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run(args.seed))
        gc.collect()  # so one pass's garbage does not raise the next one's peak memory
        elapsed = time.perf_counter() - start
        last = passes[-1]
        print(f"perfbench: pass {len(passes)}: setup {last.setup_s:.3f}s "
              f"measured {last.measured_s:.3f}s at {elapsed:.1f}s", file=sys.stderr)
        # Start another pass only if, at the mean pass time so far, it
        # would end within --seconds.
        next_end = elapsed * (len(passes) + 1) / len(passes)
        if len(passes) >= MIN_PASSES and next_end > args.seconds:
            break
    sim = passes[0].sim
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sim_ops_per_wall_s": statistics.median(p.attempted / p.measured_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "served_ops_s": sim["served_ops_s"],
        "sim_mean_ms": sim["sim_mean_ms"],
        "sim_p99_ms": sim["sim_p99_ms"],
        "ok_frac": sim["ok_frac"],
    }
    return passes, metrics, _violations(passes)


def traced_run(run, args):
    from layers import check_zero_map, layer_metrics
    from spans import LayerPatches, SpanLog

    passes = [run(args.seed) for __ in range(UNTRACED_BEFORE_TRACE)]
    log = SpanLog()
    with LayerPatches(log) as patches:
        stale = patches.stale_references()
        traced = run(args.seed)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    log.save(out / f"spans-{args.workload}-seed{args.seed}.npz")
    overhead = traced.wall_s / passes[-1].wall_s - 1.0
    metrics = layer_metrics(traced.sim, log.summary(), overhead, len(log))
    violations = _violations(passes + [traced])
    if stale:
        violations.append(f"wrapped functions still reachable unwrapped at {stale}")
    violations.extend(check_zero_map(args.workload, metrics))
    return passes + [traced], metrics, violations


if __name__ == "__main__":
    sys.exit(main())
