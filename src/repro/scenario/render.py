"""Rendering a scenario matrix's results: JSON payload, CSV, markdown.

All three renderings are pure functions of the (deterministic) results,
so the files they produce are byte-identical across runs and ``--jobs``
values — which is exactly what the determinism gate diffs.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..bench.results import FigureResult
from .spec import SERVING_RUNNERS, ScenarioSpec

__all__ = ["matrix_payload", "matrix_to_csv", "matrix_to_markdown"]


def matrix_payload(
    specs: Sequence[ScenarioSpec], results: Sequence[FigureResult]
) -> dict:
    """One JSON-ready dict: every spec echoed next to its result rows."""
    return {
        "scenarios": [
            {
                "spec": spec.to_dict(),
                "description": result.description,
                "columns": list(result.columns),
                "rows": result.rows,
                "notes": result.notes,
            }
            for spec, result in zip(specs, results)
        ]
    }


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        return '"' + text.replace('"', '""') + '"'
    return text


def matrix_to_csv(results: Sequence[FigureResult]) -> str:
    """One flat CSV over every scenario's rows.

    Scenarios with different runners have different columns; the CSV's
    header is the union (in first-appearance order) prefixed with the
    ``scenario`` name, and absent columns render empty.
    """
    columns: list[str] = []
    for result in results:
        for col in result.columns:
            if col not in columns:
                columns.append(col)
    lines = [",".join(["scenario"] + columns)]
    for result in results:
        for row in result.rows:
            lines.append(
                ",".join(
                    [_csv_cell(result.name)]
                    + [_csv_cell(row.get(col)) for col in columns]
                )
            )
    return "\n".join(lines) + "\n"


def matrix_to_markdown(
    specs: Sequence[ScenarioSpec], results: Sequence[FigureResult]
) -> str:
    """A committed-artifact-grade markdown report: one table per scenario."""
    lines = ["# Scenario matrix results", ""]
    for spec, result in zip(specs, results):
        lines.append(f"## `{spec.name}` ({spec.runner} runner)")
        lines.append("")
        lines.append(result.description)
        lines.append("")
        if spec.runner in SERVING_RUNNERS:
            axes = _serving_axes(spec)
        else:
            axes = [f"{k} = {v}" for k, v in spec.params.items()] or ["default parameters"]
        lines.append("Axes: " + ", ".join(axes) + ".")
        lines.append("")
        cols = list(result.columns)
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "|".join(" --- " for _ in cols) + "|")
        for row in result.rows:
            lines.append(
                "| " + " | ".join(_md_cell(row.get(c)) for c in cols) + " |"
            )
        lines.append("")
        for note in result.notes:
            lines.append(f"- {note}")
        if result.notes:
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _serving_axes(spec: ScenarioSpec) -> list[str]:
    """A serving spec's axes as the report's ``Axes:`` items."""
    axes = [
        f"{spec.num_rows:,} rows",
        f"{spec.num_disks} disks",
        f"mix {spec.lookup:g}/{spec.scan:g}/{spec.insert:g}",
    ]
    if spec.distribution != "uniform":
        axes.append(f"zipf theta {spec.zipf_theta:g}")
    if spec.burstiness != 1.0:
        axes.append(f"burstiness {spec.burstiness:g}")
    if spec.shard_count > 1:
        axes.append(f"{spec.shard_count} shards ({spec.placement})")
    if spec.admission != "fifo":
        axes.append(f"{spec.admission} admission")
    if spec.concurrency != "none":
        axes.append(f"{spec.concurrency} concurrency control")
    if spec.chaos:
        axes.append(f"chaos `{spec.chaos}`")
    axes.append(f"seed {spec.seed}")
    return axes


def _md_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value).replace("|", "\\|")
