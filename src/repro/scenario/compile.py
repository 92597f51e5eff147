"""Lowering: a validated :class:`ScenarioSpec` onto a ``repro.bench`` experiment.

A spec lowers to ``(experiment id, keyword arguments)``, which the
orchestrator plans into cells, runs and merges exactly as it does for
``python -m repro.bench <id> --set ...``.  The four serving runners
(``serve``, ``chaos``, ``shard``, ``concurrency``) translate the spec's
typed axes to the sweep's keyword arguments (ms to us, mix weights to
``*_weight`` names, ``zipf_theta`` folded into the ``"zipf:THETA"``
distribution string, fleet disks divided per shard).  Every other
runner passes the spec's ``params`` table through unchanged.
"""

from __future__ import annotations

from .spec import SERVING_RUNNERS, ScenarioSpec

__all__ = ["lower"]


def _distribution_arg(spec: ScenarioSpec):
    """The spec's skew as the runners' distribution argument."""
    if spec.distribution == "uniform":
        return None
    # zipf_theta travels in the string so it crosses process boundaries
    # (and the runners' signatures) without a new parameter per knob.
    return f"zipf:{spec.zipf_theta:g}"


def lower(spec: ScenarioSpec) -> tuple[str, dict]:
    """(experiment id, keyword arguments) for a validated spec."""
    if spec.runner not in SERVING_RUNNERS:
        return spec.runner, dict(spec.params)
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
    else:  # concurrency
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
    return spec.runner, kwargs

