"""Scenario matrices: many specs, one validation pass, one process pool.

A matrix file is TOML with an optional ``[defaults]`` table, one
``[[scenario]]`` table per spec, and optional ``[[claim]]`` tables naming
a predicate over the results (see :mod:`repro.scenario.claims`)::

    [defaults]
    num_rows = 8000
    seed = 11

    [[scenario]]
    name = "serve-smoke"
    runner = "serve"
    offered_loads = [400, 1600, 2400]

    [[claim]]
    predicate = "hockey_stick"
    scenarios = ["serve-smoke"]

:func:`load_matrix` overlays defaults and rejects duplicate names and
unknown keys; :func:`validate_matrix` **validates every spec and claim
before any simulation starts** — one bad cell fails the whole matrix in
milliseconds, not after the good cells burned their wall-clock.
:func:`run_matrix` then plans each scenario's cells with the
orchestrator's own planner, flattens them into one task list for its
:func:`~repro.bench.orchestrator.map_cells` pool, so cells from
*different* scenarios run concurrently, and merges them (by scenario,
then cell index) with the orchestrator's merge: byte-identical for every
``--jobs`` value.
"""

from __future__ import annotations

import tomllib
from pathlib import Path
from typing import NamedTuple, Sequence, Union

from ..bench.orchestrator import _merge, _run_cell, map_cells, plan_cells
from ..bench.results import FigureResult
from .claims import Claim
from .compile import lower
from .spec import ScenarioError, ScenarioSpec

__all__ = ["Matrix", "load_matrix", "run_matrix", "validate_matrix"]


class Matrix(NamedTuple):
    """A parsed matrix file: its specs and the claims over their results."""

    specs: list[ScenarioSpec]
    claims: list[Claim]


def load_matrix(source: Union[str, Path]) -> Matrix:
    """Parse a matrix file (defaults overlaid, names unique, claims shaped)."""
    path = Path(source)
    try:
        data = tomllib.loads(path.read_text())
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError([f"matrix {path}: invalid TOML: {exc}"]) from None
    defaults = data.get("defaults", {})
    entries = data.get("scenario", [])
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(
            [f"matrix {path}: no [[scenario]] tables found; a matrix needs at least one"]
        )
    unknown_top = sorted(set(data) - {"defaults", "scenario", "claim"})
    if unknown_top:
        raise ScenarioError(
            [
                f"matrix {path}: unknown top-level table(s) {', '.join(unknown_top)}; "
                "a matrix holds one optional [defaults] table, [[scenario]] entries "
                "and optional [[claim]] entries"
            ]
        )
    specs = [ScenarioSpec.from_dict(entry, defaults=defaults) for entry in entries]
    seen: dict[str, int] = {}
    for index, spec in enumerate(specs):
        if spec.name in seen:
            raise ScenarioError(
                [
                    f"matrix {path}: duplicate scenario name {spec.name!r} "
                    f"(entries {seen[spec.name] + 1} and {index + 1}); names key "
                    "the result tables and artifact files, so they must be unique"
                ]
            )
        seen[spec.name] = index
    claims = data.get("claim", [])
    if not isinstance(claims, list) or not all(isinstance(c, dict) for c in claims):
        raise ScenarioError(
            [f"matrix {path}: claims must be [[claim]] tables (an array of tables)"]
        )
    return Matrix(specs, [Claim.from_dict(entry) for entry in claims])


def validate_matrix(specs: Sequence[ScenarioSpec], claims: Sequence[Claim] = ()) -> None:
    """Validate every spec and claim, aggregating all problems into one error."""
    problems: list[str] = []
    for spec in specs:
        problems.extend(spec.problems())
    for claim in claims:
        problems.extend(claim.problems(specs))
    if problems:
        raise ScenarioError(problems)


def run_matrix(specs: Sequence[ScenarioSpec], jobs: int = 1) -> list[FigureResult]:
    """Run a validated matrix; every cell of every scenario shares the pool.

    Results come back in spec order regardless of ``jobs``; each spec's
    rows are merged in its own cell order.
    """
    validate_matrix(specs)
    tasks = []
    counts = []
    for spec in specs:
        runner, kwargs = lower(spec)
        cells = plan_cells(runner, kwargs)
        counts.append(len(cells))
        tasks.extend((runner, cell) for cell in cells)
    partials = map_cells(_run_cell, tasks, jobs)
    results = []
    for spec, count in zip(specs, counts):
        results.append(_merge(spec.name, partials[:count]))
        partials = partials[count:]
    return results
