"""The serving experiment: throughput and latency vs offered load.

One sweep cell per offered load: a fresh :class:`~repro.dbms.MiniDbms` and
:class:`~repro.serve.DbmsServer` (so cells share no state and parallelize
under ``--jobs``), an open-loop Poisson arrival stream at the offered
rate, and one row of the classic saturation curve — completed throughput,
latency percentiles, shed/timeout counts, queue wait and disk utilization —
plus lookup throughput and the level-wise batching counters (batches,
mean batch size, prefetch waves; all zero under ``admission_mode="fifo"``).

Below the knee, throughput tracks offered load and p99 sits near the bare
service time; past it, throughput plateaus at the disk-array service
limit, queueing pushes p99 up to the admission bound, and the excess
offered load is shed.  Everything is seeded: the rows are byte-identical
across runs and across ``--jobs`` values.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..dbms.engine import MiniDbms
from ..serve import DbmsServer, OpenLoopLoadGenerator
from ..workloads.ops import OpMix
from .results import FigureResult

__all__ = ["serve_sweep"]


def serve_sweep(
    num_rows: int = 8_000,
    num_disks: int = 8,
    page_size: int = 4096,
    offered_loads: Sequence[int] = (200, 400, 800, 1600, 3200),
    duration_s: float = 1.0,
    max_concurrency: int = 16,
    queue_depth: int = 48,
    pool_frames: int = 64,
    deadline_us: Optional[float] = None,
    lookup_weight: float = 0.70,
    scan_weight: float = 0.20,
    insert_weight: float = 0.10,
    scan_span: int = 64,
    distribution: Optional[str] = None,
    burstiness: float = 1.0,
    admission_mode: str = "fifo",
    batch_max: int = 16,
    batch_window_us: float = 2_000.0,
    concurrency: str = "none",
    seed: int = 11,
) -> FigureResult:
    """Serving saturation curve: throughput and latency vs offered load.

    The defaults reproduce the historical sweep bit-for-bit; the extra
    knobs are the scenario axes (``repro.scenario`` lowers serve specs
    here): key-popularity ``distribution`` (``"uniform"``/``"zipf"``/
    ``"zipf:THETA"``), arrival ``burstiness``, ``admission_mode``
    (``"fifo"`` or level-wise ``"batch"`` lookups), and page-level
    ``concurrency`` control.
    """
    result = FigureResult(
        "serve",
        "open-loop serving: throughput, latency percentiles and shedding vs offered load",
        [
            "offered_ops_s", "issued", "completed", "shed", "timeouts",
            "throughput_ops_s", "p50_ms", "p95_ms", "p99_ms", "p999_ms",
            "queue_p99_ms", "mean_disk_util", "lookup_throughput_ops_s",
            "lookups_completed", "batches", "mean_batch_size", "prefetch_waves",
        ],
    )
    mix = OpMix(
        lookup=lookup_weight, scan=scan_weight, insert=insert_weight, scan_span=scan_span
    )
    for rate in offered_loads:
        db = MiniDbms(
            num_rows=num_rows, num_disks=num_disks, page_size=page_size,
            seed=seed, mature=False,
        )
        server = DbmsServer(
            db,
            max_concurrency=max_concurrency,
            queue_depth=queue_depth,
            pool_frames=pool_frames,
            deadline_us=deadline_us,
            admission_mode=admission_mode,
            batch_max=batch_max,
            batch_window_us=batch_window_us,
            concurrency=concurrency,
            seed=seed,
        )
        generator = OpenLoopLoadGenerator(
            server, rate_ops_s=rate, duration_s=duration_s, mix=mix, seed=seed,
            distribution=distribution, burstiness=burstiness,
        )
        stats = generator.run()
        assert stats.conserved(), "conservation identity violated at end of run"
        percentiles = stats.percentiles_us()
        wait = stats.queue_wait_histogram()
        elapsed_s = server.env.now / 1e6
        lookups = stats.latency_histogram("lookup").count
        result.add(
            offered_ops_s=rate,
            issued=stats.issued,
            completed=stats.completed,
            shed=stats.shed_count,
            timeouts=stats.timeouts,
            throughput_ops_s=round(stats.throughput_ops_s(server.env.now), 1),
            p50_ms=round(percentiles["p50"] / 1e3, 2),
            p95_ms=round(percentiles["p95"] / 1e3, 2),
            p99_ms=round(percentiles["p99"] / 1e3, 2),
            p999_ms=round(percentiles["p999"] / 1e3, 2),
            queue_p99_ms=round(wait.quantile(0.99) / 1e3, 2) if wait is not None else 0.0,
            mean_disk_util=round(server.mean_utilization(), 3),
            lookup_throughput_ops_s=round(lookups / elapsed_s, 1) if elapsed_s > 0 else 0.0,
            lookups_completed=lookups,
            batches=stats.batches,
            mean_batch_size=(
                round(stats.batched_ops / stats.batches, 1) if stats.batches else 0.0
            ),
            prefetch_waves=int(server.reader.prefetch_waves),
        )
    result.notes.append(
        f"{num_disks}-disk array, {max_concurrency} tokens, queue bound {queue_depth}, "
        f"pool {pool_frames} frames, mix {mix.lookup:g}/{mix.scan:g}/{mix.insert:g} "
        f"lookup/scan/insert over {num_rows} rows for {duration_s:g}s per cell"
    )
    # Only non-default scenario knobs appear in the note, so the historical
    # default sweep's output stays byte-identical.
    knobs = []
    if distribution not in (None, "uniform"):
        knobs.append(f"{distribution} key popularity")
    if burstiness != 1.0:
        knobs.append(f"burstiness {burstiness:g}")
    if admission_mode != "fifo":
        knobs.append(f"admission {admission_mode} (max {batch_max}, window {batch_window_us:g}us)")
    if concurrency != "none":
        knobs.append(f"{concurrency} concurrency control")
    if knobs:
        result.notes.append("; ".join(knobs))
    return result

