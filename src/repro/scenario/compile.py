"""Lowering: a validated :class:`ScenarioSpec` onto the ``repro.bench`` runners.

Each spec compiles to one of the four existing sweep functions —
``serve_sweep``, ``chaos_sweep``, ``shard_sweep``, ``concurrency_sweep`` —
with the spec's axes translated to the runner's keyword arguments (ms to
us, mix weights to ``*_weight`` names, ``zipf_theta`` folded into the
``"zipf:THETA"`` distribution string, fleet disks divided per shard).

A spec also compiles to *cells*: independently runnable slices of the
lowered sweep (one per offered load for open-loop runners, one per chaos
mode for the chaos runner) so a matrix of scenarios fans out over the
orchestrator's process pool exactly like the figure sweeps do, with the
same determinism contract — merge in cell order, ``--jobs N``
byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

from ..bench.chaos import chaos_sweep
from ..bench.concurrency import concurrency_sweep
from ..bench.serving import serve_sweep
from ..bench.sharding import shard_sweep
from .spec import ScenarioSpec

__all__ = ["lower", "plan_scenario_cells", "run_scenario_cell"]

_RUNNER_FUNCS = {
    "serve": serve_sweep,
    "chaos": chaos_sweep,
    "shard": shard_sweep,
    "concurrency": concurrency_sweep,
}


def _distribution_arg(spec: ScenarioSpec):
    """The spec's skew as the runners' distribution argument."""
    if spec.distribution == "uniform":
        return None
    # zipf_theta travels in the string so it crosses process boundaries
    # (and the runners' signatures) without a new parameter per knob.
    return f"zipf:{spec.zipf_theta:g}"


def lower(spec: ScenarioSpec) -> tuple[str, dict]:
    """(runner function name, keyword arguments) for a validated spec."""
    if spec.runner == "serve":
        kwargs = dict(
            num_rows=spec.num_rows,
            num_disks=spec.num_disks,
            page_size=spec.page_size,
            offered_loads=tuple(spec.offered_loads),
            duration_s=spec.duration_s,
            max_concurrency=spec.max_concurrency,
            queue_depth=spec.queue_depth,
            pool_frames=spec.pool_frames,
            deadline_us=None if spec.deadline_ms is None else spec.deadline_ms * 1e3,
            lookup_weight=spec.lookup,
            scan_weight=spec.scan,
            insert_weight=spec.insert,
            scan_span=spec.scan_span,
            distribution=_distribution_arg(spec),
            burstiness=spec.burstiness,
            admission_mode=spec.admission,
            batch_max=spec.batch_max,
            batch_window_us=spec.batch_window_ms * 1e3,
            concurrency=spec.concurrency,
            seed=spec.seed,
        )
    elif spec.runner == "chaos":
        kwargs = dict(
            modes=("baseline", "resilient"),
            schedule_text=spec.chaos,
            schedule_seed=spec.chaos_seed,
            num_rows=spec.num_rows,
            num_disks=spec.num_disks,
            page_size=spec.page_size,
            sessions=spec.sessions,
            ops_per_session=spec.ops_per_session,
            think_time_us=spec.think_time_ms * 1e3,
            deadline_us=spec.deadline_ms * 1e3,
            max_concurrency=spec.max_concurrency,
            queue_depth=spec.queue_depth,
            pool_frames=spec.pool_frames,
            lookup_weight=spec.lookup,
            scan_weight=spec.scan,
            insert_weight=spec.insert,
            scan_span=spec.scan_span,
            seed=spec.seed,
        )
    elif spec.runner == "shard":
        kwargs = dict(
            num_rows=spec.num_rows,
            # The spec's num_disks is the *fleet* total; shard_sweep's is
            # per shard.  The validator guarantees shard_count divides it.
            num_disks=spec.num_disks // spec.shard_count,
            page_size=spec.page_size,
            shard_counts=(spec.shard_count,),
            placements=(spec.placement,),
            offered_loads=tuple(spec.offered_loads),
            duration_s=spec.duration_s,
            max_concurrency=spec.max_concurrency,
            queue_depth=spec.queue_depth,
            pool_frames=spec.pool_frames,
            lookup_weight=spec.lookup,
            scan_weight=spec.scan,
            insert_weight=spec.insert,
            scan_span=spec.scan_span,
            distribution=_distribution_arg(spec) or "uniform",
            burstiness=spec.burstiness,
            admission_mode=spec.admission,
            batch_max=spec.batch_max,
            batch_window_us=spec.batch_window_ms * 1e3,
            seed=spec.seed,
        )
    elif spec.runner == "concurrency":
        kwargs = dict(
            modes=(spec.concurrency,),
            seeds=(spec.seed,),
            num_rows=spec.num_rows,
            num_disks=spec.num_disks,
            page_size=spec.page_size,
            sessions=spec.sessions,
            ops_per_session=spec.ops_per_session,
            think_time_us=spec.think_time_ms * 1e3,
            lookup_weight=spec.lookup,
            scan_weight=spec.scan,
            insert_weight=spec.insert,
            scan_span=spec.scan_span,
            max_concurrency=spec.max_concurrency,
            queue_depth=spec.queue_depth,
            pool_frames=spec.pool_frames,
        )
    else:  # pragma: no cover - validate() rejects unknown runners first
        raise ValueError(f"unknown runner {spec.runner!r}")
    return spec.runner, kwargs


def plan_scenario_cells(spec: ScenarioSpec) -> list[tuple[str, dict]]:
    """Split one lowered spec into independently runnable cells.

    Open-loop runners split per offered load; the chaos runner splits per
    mode (baseline vs resilient substrates share nothing); the
    concurrency runner is a single cell.  Cell order matches the lowered
    sweep's own loop order, so merging cells in order reproduces the
    unsplit row order byte-for-byte.
    """
    runner, kwargs = lower(spec)
    if runner in ("serve", "shard"):
        return [
            (runner, {**kwargs, "offered_loads": (rate,)})
            for rate in kwargs["offered_loads"]
        ]
    if runner == "chaos":
        return [(runner, {**kwargs, "modes": (mode,)}) for mode in kwargs["modes"]]
    return [(runner, kwargs)]


def run_scenario_cell(task: tuple[str, dict]) -> dict:
    """Worker entry point: one cell in, one picklable partial result out."""
    runner, kwargs = task
    result = _RUNNER_FUNCS[runner](**kwargs)
    return {
        "description": result.description,
        "columns": list(result.columns),
        "rows": result.rows,
        "notes": result.notes,
    }

