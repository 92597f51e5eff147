"""Declarative scenario specs, validated before any simulation runs.

The serving stack grew one axis per PR — workload mix and skew, chaos
schedules with crash points, admission batching, page-level concurrency
control, key-range sharding — and every evaluation so far wired those
axes together by hand in a bench function.  This package replaces the
hand-wiring with data: a :class:`ScenarioSpec` names one point in the
grid, a matrix file holds many, a cross-field validator rejects the
combinations that cannot work *before* the discrete-event clock starts,
and a compiler lowers the survivors onto the existing experiments behind
the orchestrator's deterministic process pool.  Any registered experiment
is a runner: the serving sweeps read typed fields, every other experiment
reads a ``params`` table of its keyword arguments.

    specs, claims = load_matrix("benchmarks/scenarios/serve_smoke.toml")
    validate_matrix(specs, claims)             # before any simulated time
    results = run_matrix(specs, jobs=4)        # byte-identical for any jobs
    print(matrix_to_markdown(specs, results))
    assert not evaluate_claims(claims, specs, results)

CLI: ``python -m repro.bench scenario --matrix FILE --jobs N``.
"""

from .claims import PREDICATES, Claim, evaluate_claims
from .compile import lower
from .matrix import load_matrix, run_matrix, validate_matrix
from .render import matrix_payload, matrix_to_csv, matrix_to_markdown
from .spec import ScenarioError, ScenarioSpec

__all__ = [
    "PREDICATES",
    "Claim",
    "ScenarioError",
    "ScenarioSpec",
    "lower",
    "evaluate_claims",
    "load_matrix",
    "run_matrix",
    "validate_matrix",
    "matrix_payload",
    "matrix_to_csv",
    "matrix_to_markdown",
]
