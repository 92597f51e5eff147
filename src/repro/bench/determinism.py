"""The determinism gate: byte-compare two runs of a seeded computation.

Every experiment in this repo carries the same contract — output is a
pure function of its parameters and seed, never of wall-clock, worker
scheduling or ``--jobs``.  The scenario runner's ``--gate`` flag checks
it by re-running a matrix and comparing the payloads with
:func:`assert_identical_bytes`.
"""

from __future__ import annotations

__all__ = ["assert_identical_bytes", "DeterminismError"]


class DeterminismError(AssertionError):
    """Two runs that must be byte-identical were not."""


def _first_divergence(a: bytes, b: bytes) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for index, (la, lb) in enumerate(zip(a_lines, b_lines)):
        if la != lb:
            return (
                f"first divergence at line {index + 1}:\n"
                f"  run 1: {la[:200]!r}\n  run 2: {lb[:200]!r}"
            )
    return (
        f"one output is a prefix of the other "
        f"({len(a_lines)} vs {len(b_lines)} lines)"
    )


def assert_identical_bytes(a: bytes, b: bytes, label: str = "runs") -> None:
    """Raise :class:`DeterminismError` with the first diverging line."""
    if a != b:
        raise DeterminismError(
            f"determinism gate failed: {label} differ; {_first_divergence(a, b)}"
        )
