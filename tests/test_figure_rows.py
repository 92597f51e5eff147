"""Golden rows for the space and I/O figures (fig16, fig17, fig18).

``tests/data/figure_rows.json`` holds each figure's parameters (smoke
scale) and the rows it produced when the fixture was written.  A change to
the index code that is meant to be behaviour-preserving (the untraced
routing kernel, allocator or descent rewrites) must reproduce these rows
exactly: fig16 counts pages after maturing inserts, fig17 counts buffer-pool
misses per search, fig18 times range-scan I/O over the leaf chain.

Regenerate only for an intended behaviour change, and say why where the
change is recorded::

    PYTHONPATH=src python tests/test_figure_rows.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.bench.figures import ALL_EXPERIMENTS

FIXTURE = Path(__file__).parent / "data" / "figure_rows.json"
GOLDEN = json.loads(FIXTURE.read_text())


def produce(name: str, params: dict) -> dict:
    result = ALL_EXPERIMENTS[name](**params)
    # A JSON round trip gives the fixture's types (tuples become lists).
    return json.loads(
        json.dumps({"params": params, "columns": list(result.columns), "rows": result.rows})
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_figure_rows_match_fixture(name):
    assert produce(name, GOLDEN[name]["params"]) == GOLDEN[name]


def test_fixture_covers_the_space_and_io_figures():
    assert sorted(GOLDEN) == ["fig16", "fig17", "fig18"]
    assert GOLDEN["fig17"]["params"]["num_keys"] == 30_000
    assert len(GOLDEN["fig17"]["params"]["page_sizes"]) == 1


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(
        json.dumps({name: produce(name, spec["params"]) for name, spec in GOLDEN.items()}, indent=1)
    )
