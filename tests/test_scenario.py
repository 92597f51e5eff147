"""Tests for the declarative scenario layer (`repro.scenario`).

Four claims, mirroring the module's contract:

1. **Validation before simulation** — every cross-field rule rejects its
   inconsistent combination with an actionable message, table-driven so
   each rule's message content is asserted, and in ~milliseconds (no DES
   clock ever starts for an invalid spec).
2. **Round-trip fidelity** — dict -> spec -> TOML -> spec is the identity
   for every representable spec (hypothesis-driven), and every committed
   matrix file loads and validates.
3. **Determinism** — a matrix's results are byte-identical across
   ``jobs`` values and across repeated runs.
4. **Claims** — every check the retired smoke scripts made is a named
   predicate bound in a committed matrix, each predicate rejects
   hand-broken rows (negative controls), and a malformed claim fails the
   matrix before any cell runs.
"""

import time
from pathlib import Path

import pytest
import tomllib

from repro.bench.__main__ import main as bench_main
from repro.bench.figures import fault_resilience, recovery_overhead
from repro.bench.orchestrator import plan_cells
from repro.scenario import claims as claims_module
from repro.scenario import (
    PREDICATES,
    Claim,
    ScenarioError,
    ScenarioSpec,
    load_matrix,
    lower,
    matrix_payload,
    matrix_to_csv,
    matrix_to_markdown,
    run_matrix,
    validate_matrix,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "benchmarks" / "scenarios"


def make(**overrides):
    """A valid baseline spec, with overrides applied (not yet validated)."""
    base = dict(name="t", runner="serve", num_rows=2_000, offered_loads=(400,),
                duration_s=0.2)
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# 1. The rejection table: one row per cross-field rule, message asserted.
# ---------------------------------------------------------------------------

REJECTIONS = [
    # (overrides, substring that must appear in the message)
    (dict(runner="warp"), "unknown runner 'warp'"),
    (dict(admission="lifo"), "unknown admission mode 'lifo'"),
    (dict(concurrency="lockfree"), "unknown concurrency mode 'lockfree'"),
    (dict(distribution="pareto"), "unknown distribution 'pareto'"),
    (dict(runner="shard", shard_count=2, num_disks=8, placement="stripe"),
     "unknown placement 'stripe'"),
    (dict(num_rows=0), "num_rows must be >= 1"),
    (dict(duration_s=0.0), "duration_s must be positive"),
    (dict(deadline_ms=-5.0), "deadline_ms must be positive"),
    (dict(lookup=0.0, scan=0.0, insert=0.0), "positive sum"),
    (dict(offered_loads=()), "non-empty list of positive"),
    (dict(burstiness=0.5), "burstiness is the mean arrival-burst size"),
    # crash point without a WAL: recovery would have nothing to replay.
    (dict(runner="chaos", wal=False, deadline_ms=30.0, chaos="crash wal=5"),
     "crashing without a write-ahead log loses every acknowledged write"),
    # WAL claimed on a runner with no WAL wiring.
    (dict(runner="serve", wal=True), "has no WAL wiring"),
    # chaos/concurrency substrates always log; the spec must say so.
    (dict(runner="chaos", wal=False, deadline_ms=30.0),
     "serves every insert through a write-ahead log"),
    # a chaos clause aimed at a runner that can't execute it.
    (dict(runner="serve", chaos="corrupt rate=0.1"),
     "only runs under runner = 'chaos'"),
    # malformed clause text caught at parse time.
    (dict(runner="chaos", wal=True, deadline_ms=30.0, chaos="explode disk=0"),
     "bad chaos clause"),
    # fault aimed at a disk the array doesn't have.
    (dict(runner="chaos", wal=True, deadline_ms=30.0, num_disks=4,
          chaos="limp disk=7 x4 @0.1s"),
     "targets disk 7 but the array has num_disks = 4"),
    # killing the only disk is unsurvivable.
    (dict(runner="chaos", wal=True, deadline_ms=30.0, num_disks=1,
          chaos="kill disk=0 @0.1s"),
     "unsurvivable"),
    # chaos clients need a deadline (brownout SLO keys off it too).
    (dict(runner="chaos", wal=True, deadline_ms=None), "set deadline_ms"),
    # deadline on runners that would silently ignore it.
    (dict(runner="shard", shard_count=2, num_disks=8, deadline_ms=20.0),
     "not wired into the 'shard' runner"),
    # batch admission with no lookups to batch.
    (dict(admission="batch", lookup=0.0, scan=0.9, insert=0.1),
     "no batch would ever form"),
    # batch admission on a closed-loop runner.
    (dict(runner="concurrency", wal=True, concurrency="page", admission="batch"),
     "admits each client's op individually"),
    # more shards than spindles.
    (dict(runner="shard", shard_count=16, num_disks=12),
     "shard_count = 16 exceeds num_disks = 12"),
    # sharding without the shard runner.
    (dict(runner="serve", shard_count=2), "needs runner = 'shard'"),
    # one shard has no boundaries to optimize: the cell emits zero rows.
    (dict(runner="shard", shard_count=1, placement="optimized"),
     "no boundaries to optimize"),
    # paper-scale keys under a smoke deadline: every query would time out.
    (dict(num_rows=10_000_000, deadline_ms=5.0),
     "every query would time out"),
    # the deliberately-broken concurrency mode is not a scenario.
    (dict(concurrency="broken"), "negative control"),
    # the concurrency runner exists to compare latching regimes.
    (dict(runner="concurrency", wal=True, concurrency="none"),
     "compares latching regimes"),
    # page latching isn't wired into the shard fleet.
    (dict(runner="shard", shard_count=2, num_disks=8, concurrency="page"),
     "not wired into the shard fleet"),
    # a scan can't cover more entries than exist.
    (dict(num_rows=50, scan_span=64), "exceeds the 50-key universe"),
    # skew/burstiness only shape open-loop arrivals.
    (dict(runner="concurrency", wal=True, concurrency="page", distribution="zipf"),
     "not plumbed into the closed-loop"),
    (dict(runner="chaos", wal=True, deadline_ms=30.0, burstiness=4.0),
     "closed-loop (sessions self-throttle on completions)"),
    # a wrong-typed field is a message, not a TypeError from a comparison.
    (dict(num_rows="8000"), "num_rows must be an integer, got '8000' (str)"),
    (dict(wal=1), "wal must be true or false"),
    # fleet disks that do not split evenly would silently idle spindles.
    (dict(runner="shard", shard_count=4, num_disks=10),
     "num_disks = 10 does not split evenly over shard_count = 4"),
    # params runners: names and types checked as --set overrides are.
    (dict(runner="fault-resilience", params={"warp": 1}), "has no parameter(s) warp"),
    (dict(runner="recovery", params={"num_keys": "3000"}),
     "num_keys = '3000' does not match the type of its default 20000"),
    (dict(runner="recovery", params={"num_updates": 400.5}),
     "num_updates = 400.5 does not match the type of its default 2000"),
    (dict(runner="fault-resilience", params={"error_rates": ["low"]}),
     "error_rates = ('low',) does not match"),
    # a serving field on a params runner would be silently ignored.
    (dict(runner="recovery"), "num_rows is a serving field"),
    # a params table on a serving runner would be silently ignored.
    (dict(params={"num_rows": 2_000}), "params is for experiment runners"),
    (dict(params=[1]), "params must be a table"),
]


@pytest.mark.parametrize(
    "overrides, fragment",
    REJECTIONS,
    ids=[f"{i}-{frag[:34]}" for i, (_, frag) in enumerate(REJECTIONS)],
)
def test_invalid_combination_rejected_with_actionable_message(overrides, fragment):
    spec = make(**overrides)
    started = time.monotonic()
    with pytest.raises(ScenarioError) as excinfo:
        spec.validate()
    elapsed = time.monotonic() - started
    assert fragment in str(excinfo.value), (
        f"expected {fragment!r} in:\n{excinfo.value}"
    )
    # Every message names the scenario so matrix-level aggregation stays
    # attributable, and validation never starts the DES clock.
    assert "scenario 't'" in str(excinfo.value)
    assert elapsed < 1.0, "validation must fail before any simulation time"


def test_validate_reports_every_problem_at_once():
    spec = make(runner="chaos", wal=False, deadline_ms=None, burstiness=4.0)
    with pytest.raises(ScenarioError) as excinfo:
        spec.validate()
    assert len(excinfo.value.problems) >= 3


def test_unknown_field_and_missing_required_rejected():
    with pytest.raises(ScenarioError, match="unknown field\\(s\\) warp_factor"):
        ScenarioSpec.from_dict({"name": "x", "runner": "serve", "warp_factor": 9})
    with pytest.raises(ScenarioError, match="missing required field 'runner'"):
        ScenarioSpec.from_dict({"name": "x"})


def test_valid_spec_validates_clean():
    assert make().problems() == []
    assert make(
        runner="chaos", wal=True, deadline_ms=30.0,
        chaos="corrupt rate=0.2; crash wal=10", num_disks=4,
    ).problems() == []


# ---------------------------------------------------------------------------
# 2. Round-trips and committed files.
# ---------------------------------------------------------------------------

def test_toml_round_trip_by_hand():
    spec = make(distribution="zipf", zipf_theta=1.4, burstiness=2.5,
                offered_loads=(200, 1600), deadline_ms=None)
    text = spec.to_toml()
    back = ScenarioSpec.from_dict(tomllib.loads(text)["scenario"][0])
    assert back == spec


def test_toml_round_trip_of_params():
    spec = ScenarioSpec(name="f", runner="fault-resilience", params={
        "num_rows": 20_000, "error_rates": [0.0, 0.05], "limp_factors": [10.0],
    })
    text = spec.to_toml()
    assert "params = {" in text
    back = ScenarioSpec.from_dict(tomllib.loads(text)["scenario"][0])
    assert back == spec
    assert back.problems() == []


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the dev env
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:
    # Text that TOML basic strings can carry (no control chars we don't
    # escape; the emitter escapes quote/backslash/newline/tab itself).
    names = st.text(
        st.characters(codec="utf-8", exclude_categories=("Cs",), min_codepoint=0x20),
        min_size=1, max_size=40,
    )
    finite_floats = st.floats(
        min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
    )

    @st.composite
    def specs(draw):
        return ScenarioSpec(
            name=draw(names),
            runner=draw(st.sampled_from(["serve", "chaos", "shard", "concurrency"])),
            lookup=draw(finite_floats),
            scan=draw(finite_floats),
            insert=draw(finite_floats),
            scan_span=draw(st.integers(1, 10_000)),
            distribution=draw(st.sampled_from(["uniform", "zipf"])),
            zipf_theta=draw(finite_floats),
            burstiness=draw(finite_floats),
            chaos=draw(st.sampled_from(
                ["", "corrupt rate=0.2", "kill disk=0 @0.1s; crash wal=5"]
            )),
            chaos_seed=draw(st.integers(0, 2**31)),
            wal=draw(st.booleans()),
            num_rows=draw(st.integers(1, 10**8)),
            num_disks=draw(st.integers(1, 64)),
            page_size=draw(st.sampled_from([512, 1024, 4096, 8192])),
            shard_count=draw(st.integers(1, 64)),
            placement=draw(st.sampled_from(["equal_width", "optimized"])),
            admission=draw(st.sampled_from(["fifo", "batch"])),
            batch_max=draw(st.integers(1, 256)),
            batch_window_ms=draw(finite_floats),
            concurrency=draw(st.sampled_from(["none", "page", "coarse"])),
            offered_loads=tuple(draw(
                st.lists(st.integers(1, 10**6), min_size=1, max_size=5)
            )),
            duration_s=draw(finite_floats),
            sessions=draw(st.integers(1, 64)),
            ops_per_session=draw(st.integers(1, 1000)),
            think_time_ms=draw(finite_floats),
            deadline_ms=draw(st.one_of(st.none(), finite_floats)),
            max_concurrency=draw(st.integers(1, 256)),
            queue_depth=draw(st.integers(1, 1024)),
            pool_frames=draw(st.integers(1, 4096)),
            seed=draw(st.integers(0, 2**31)),
        )

    @settings(max_examples=200, deadline=None)
    @given(spec=specs())
    def test_toml_round_trip_hypothesis(spec):
        """dict -> spec -> TOML -> tomllib -> spec is the identity.

        Round-trip fidelity is independent of validity: even specs the
        validator would reject must survive serialization unchanged, or a
        matrix file could silently mean something else than it says.
        """
        text = spec.to_toml()
        back = ScenarioSpec.from_dict(tomllib.loads(text)["scenario"][0])
        assert back == spec


def test_every_committed_scenario_file_loads_and_validates():
    files = sorted(SCENARIO_DIR.glob("*.toml"))
    assert len(files) >= 6, f"expected the committed matrices in {SCENARIO_DIR}"
    for path in files:
        specs, claims = load_matrix(path)
        validate_matrix(specs, claims)  # raises on any problem
        assert specs, path


def test_matrix_defaults_overlay_and_duplicate_names(tmp_path):
    good = tmp_path / "m.toml"
    good.write_text(
        "[defaults]\nnum_rows = 1234\n\n"
        '[[scenario]]\nname = "a"\nrunner = "serve"\n\n'
        '[[scenario]]\nname = "b"\nrunner = "serve"\nnum_rows = 99\n'
    )
    specs, claims = load_matrix(good)
    assert [s.num_rows for s in specs] == [1234, 99]
    assert claims == []

    dup = tmp_path / "dup.toml"
    dup.write_text(
        '[[scenario]]\nname = "a"\nrunner = "serve"\n\n'
        '[[scenario]]\nname = "a"\nrunner = "serve"\n'
    )
    with pytest.raises(ScenarioError, match="duplicate scenario name 'a'"):
        load_matrix(dup)

    empty = tmp_path / "empty.toml"
    empty.write_text("[defaults]\nseed = 1\n")
    with pytest.raises(ScenarioError, match="no \\[\\[scenario\\]\\] tables"):
        load_matrix(empty)


# ---------------------------------------------------------------------------
# 3. Lowering and determinism.
# ---------------------------------------------------------------------------

def test_lowering_translates_units_and_axes():
    spec = make(runner="chaos", wal=True, deadline_ms=30.0, think_time_ms=1.5,
                chaos="corrupt rate=0.2", chaos_seed=7, num_disks=4)
    runner, kwargs = lower(spec)
    assert runner == "chaos"
    assert kwargs["deadline_us"] == 30_000.0
    assert kwargs["think_time_us"] == 1_500.0
    assert kwargs["schedule_text"] == "corrupt rate=0.2"
    assert kwargs["schedule_seed"] == 7

    spec = make(runner="shard", shard_count=4, num_disks=8, distribution="zipf",
                zipf_theta=1.3)
    runner, kwargs = lower(spec)
    assert kwargs["num_disks"] == 2  # fleet disks divided per shard
    assert kwargs["shard_counts"] == (4,)
    assert kwargs["distribution"] == "zipf:1.3"


def test_cell_planning_splits_open_loop_loads_and_chaos_modes():
    serve_cells = plan_cells(*lower(make(offered_loads=(200, 800, 1600))))
    assert len(serve_cells) == 3
    assert [c["offered_loads"] for c in serve_cells] == [(200,), (800,), (1600,)]
    chaos_cells = plan_cells(*lower(make(runner="chaos", wal=True, deadline_ms=30.0)))
    assert [c["modes"] for c in chaos_cells] == [("baseline",), ("resilient",)]
    fig10_cells = plan_cells(*lower(ScenarioSpec(
        name="f", runner="fig10", params={"page_sizes": [4096, 8192], "sizes": [2000]},
    )))
    assert [(c["page_sizes"], c["sizes"]) for c in fig10_cells] == [
        ((4096,), (2000,)), ((8192,), (2000,)),
    ]


def test_run_scenario_rejects_invalid_before_running():
    with pytest.raises(ScenarioError):
        run_matrix([make(runner="serve", wal=True)])


def test_matrix_jobs2_byte_identical_to_jobs1():
    import json

    specs, __ = load_matrix(SCENARIO_DIR / "serve_smoke.toml")
    a = matrix_payload(specs, run_matrix(specs, jobs=1))
    b = matrix_payload(specs, run_matrix(specs, jobs=2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_matrix_fails_whole_before_any_cell_runs():
    specs = [make(), make(name="bad", runner="serve", wal=True)]
    started = time.monotonic()
    with pytest.raises(ScenarioError, match="scenario 'bad'"):
        run_matrix(specs)
    # The valid first spec must not have burned its simulation time.
    assert time.monotonic() - started < 1.0


def test_renderers_cover_every_scenario_and_row():
    specs, __ = load_matrix(SCENARIO_DIR / "batch_smoke.toml")
    results = run_matrix(specs, jobs=1)
    csv = matrix_to_csv(results)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("scenario,")
    assert len(lines) == 1 + sum(len(r.rows) for r in results)
    md = matrix_to_markdown(specs, results)
    for spec in specs:
        assert f"## `{spec.name}`" in md
    payload = matrix_payload(specs, results)
    assert [entry["spec"]["name"] for entry in payload["scenarios"]] == [
        s.name for s in specs
    ]


# ---------------------------------------------------------------------------
# 4. Claims: the retired smoke scripts' checks as named predicates.
# ---------------------------------------------------------------------------

#: A claim letter checked by the CI cell's ``--gate`` re-runs, not a predicate.
GATE = "--gate"

#: Every claim letter the old ``benchmarks/bench_{serve,chaos,concurrency,
#: shard,faults,recovery}.py`` scripts asserted -> (matrix, predicate,
#: bounds) now checking it; the bounds are ``repro.scenario.claims``
#: constants holding the old scripts' values.  Fixed-seed determinism
#: (letter (d) of the serving scripts, (c) of faults and recovery) is the
#: scenario CLI's ``--gate``, except serve (d)'s per-row drain identity,
#: which ``hockey_stick`` checks.
OLD_CLAIMS = {
    ("serve", "a"): ("serve_smoke.toml", "hockey_stick", {"KEEP_UP_MIN": 0.9}),
    ("serve", "b"): ("serve_smoke.toml", "hockey_stick", {
        "OVERLOAD_STEP_MIN": 1.5, "PLATEAU_MIN": 0.8, "PLATEAU_MAX": 1.25,
        "SATURATED_MAX": 0.8, "P99_RISE_MIN": 2.0,
    }),
    ("serve", "c"): ("serve_smoke.toml", "hockey_stick", {}),
    ("serve", "d"): ("serve_smoke.toml", "hockey_stick", {}),
    ("serve", "e"): ("batch_smoke.toml", "batching_pays", {"LOOKUP_SPEEDUP_MIN": 1.5}),
    ("serve", "f"): ("batch_smoke.toml", "batching_pays", {}),
    ("chaos", "a"): ("chaos_smoke.toml", "resilience_pays", {}),
    ("chaos", "b"): ("chaos_smoke.toml", "resilience_pays", {}),
    ("chaos", "c"): ("chaos_smoke.toml", "resilience_pays", {}),
    ("concurrency", "a"): ("concurrency_smoke.toml", "page_latches_win", {}),
    ("concurrency", "b"): ("concurrency_smoke.toml", "page_latches_win", {}),
    ("concurrency", "c"): ("concurrency_smoke.toml", "page_latches_win", {}),
    ("shard", "a"): ("shard_smoke.toml", "fleet_scales", {"SCALING_MIN": 2.5}),
    ("shard", "b"): ("shard_smoke.toml", "fleet_scales", {"CROSS_SHARD_MAX": 0.75}),
    ("shard", "c"): ("shard_smoke.toml", "fleet_scales", {}),
    ("faults", "a"): ("figures_smoke.toml", "hedging_pays", {"HEDGED_MIN": 0.9}),
    ("faults", "b"): ("figures_smoke.toml", "hedging_pays", {"LIMP_LOSS_RATIO_MIN": 2.0}),
    ("faults", "c"): ("figures_smoke.toml", GATE, {}),
    ("recovery", "a"): ("figures_smoke.toml", "checkpoints_pay",
                        {"APPENDS_PER_UPDATE_MIN": 3}),
    ("recovery", "b"): ("figures_smoke.toml", "checkpoints_pay", {}),
    ("recovery", "c"): ("figures_smoke.toml", GATE, {}),
}


def _committed_claims(matrix, predicate):
    specs, claims = load_matrix(SCENARIO_DIR / matrix)
    return specs, [c for c in claims if c.predicate == predicate]


@pytest.mark.parametrize("script, letter", sorted(OLD_CLAIMS))
def test_every_old_claim_is_a_committed_predicate(script, letter):
    matrix, predicate, bounds = OLD_CLAIMS[(script, letter)]
    if predicate == GATE:
        ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert f"scenario: benchmarks/scenarios/{matrix}" in ci
        assert "--jobs 2 --gate" in ci
        return
    assert predicate in PREDICATES
    specs, claims = _committed_claims(matrix, predicate)
    assert claims, f"{matrix} has no {predicate} claim"
    assert {name: getattr(claims_module, name) for name in bounds} == bounds


def test_page_latch_claims_cover_both_old_seeds():
    specs, claims = _committed_claims("concurrency_smoke.toml", "page_latches_win")
    seed_of = {spec.name: spec.seed for spec in specs}
    seeds = {seed_of[name] for claim in claims for name in claim.scenarios}
    assert seeds == {5, 13}


#: Rows each predicate accepts (trimmed smoke-scale results), one list
#: per role.
PASSING_ROWS = {
    "hockey_stick": [[
        dict(offered_ops_s=200, issued=102, completed=102, shed=0, throughput_ops_s=202.0,
             p99_ms=16.94),
        dict(offered_ops_s=1200, issued=622, completed=622, shed=0, throughput_ops_s=1135.1,
             p99_ms=64.62),
        dict(offered_ops_s=2400, issued=1210, completed=624, shed=586,
             throughput_ops_s=1019.3, p99_ms=126.22),
    ]],
    "batching_pays": [
        [dict(offered_ops_s=1600, batches=0, mean_batch_size=0.0, prefetch_waves=0,
              lookup_throughput_ops_s=129.2, lookups_completed=123)],
        [dict(offered_ops_s=1600, batches=58, mean_batch_size=13.1, prefetch_waves=91,
              lookup_throughput_ops_s=268.7, lookups_completed=540)],
    ],
    "resilience_pays": [[
        dict(mode="baseline", conserved=1, crashes=1, lost_inserts=0, ok_ops=86,
             goodput_ops_s=35.142, retries=0, fast_fails=0, breaker_trips=0,
             brownout_level=0),
        dict(mode="resilient", conserved=1, crashes=1, lost_inserts=0, ok_ops=134,
             goodput_ops_s=87.975, retries=162, fast_fails=65, breaker_trips=34,
             brownout_level=4),
    ]],
    "page_latches_win": [
        [dict(mode="coarse", seed=5, ok_ops=150, failed=0, linearizable=1,
              p99_lookup_ms=100.974, write_waits=149, validation_failures=0)],
        [dict(mode="page", seed=5, ok_ops=150, failed=0, linearizable=1,
              p99_lookup_ms=41.359, write_waits=0, validation_failures=11)],
    ],
    "fleet_scales": [
        [dict(shard_count=1, placement="equal_width", offered_ops_s=2000, issued=834,
              completed=199, shed=635, failed=0, probe_in_flight=78,
              lookup_tput_ops_s=270.7, scan_fragments=177, cross_shard_scans=0)],
        [dict(shard_count=4, placement="equal_width", offered_ops_s=2000, issued=834,
              completed=834, shed=0, failed=0, probe_in_flight=16,
              lookup_tput_ops_s=1401.1, scan_fragments=186, cross_shard_scans=9)],
        [dict(shard_count=4, placement="optimized", offered_ops_s=2000, issued=834,
              completed=834, shed=0, failed=0, probe_in_flight=20,
              lookup_tput_ops_s=1413.3, scan_fragments=181, cross_shard_scans=4)],
    ],
    "hedging_pays": [[
        dict(panel="a", x=0.0, mode="retry only", pages_per_s=494.1, checksum_failures=0,
             row_count=20000),
        dict(panel="a", x=0.0, mode="hedged", pages_per_s=471.9, checksum_failures=0,
             row_count=20000),
        dict(panel="a", x=0.05, mode="retry only", pages_per_s=286.5, checksum_failures=2,
             row_count=20000),
        dict(panel="a", x=0.05, mode="hedged", pages_per_s=412.4, checksum_failures=1,
             row_count=20000),
        dict(panel="b", x=1.0, mode="clean", pages_per_s=494.1, checksum_failures=0,
             row_count=20000),
        dict(panel="b", x=10.0, mode="retry only", pages_per_s=218.4, checksum_failures=0,
             row_count=20000),
        dict(panel="b", x=10.0, mode="hedged", pages_per_s=386.4, checksum_failures=0,
             row_count=20000),
    ]],
    "checkpoints_pay": [[
        dict(panel="a", checkpoint_interval=0, wal_appends=1206, pages_flushed=0,
             checkpoints=0, write_us_per_op=808.43, records_replayed=0, recovery_us=0,
             updates=400),
        dict(panel="b", checkpoint_interval=0, wal_appends=1086, pages_flushed=0,
             checkpoints=0, write_us_per_op=0, records_replayed=364, recovery_us=45644.4,
             updates=400),
        dict(panel="a", checkpoint_interval=25, wal_appends=1222, pages_flushed=19,
             checkpoints=16, write_us_per_op=848.35, records_replayed=0, recovery_us=0,
             updates=400),
        dict(panel="b", checkpoint_interval=25, wal_appends=1100, pages_flushed=0,
             checkpoints=0, write_us_per_op=0, records_replayed=10, recovery_us=42048.6,
             updates=400),
    ]],
}

#: (predicate, old claim letter, {role index: {row index: changes}},
#: fragment of the failure message the broken rows must produce).
NEGATIVE_CONTROLS = [
    ("hockey_stick", "a", {0: {0: dict(shed=3)}}, "shed 3 ops"),
    ("hockey_stick", "a", {0: {0: dict(throughput_ops_s=170.0)}}, "under 0.9x offered"),
    ("hockey_stick", "b", {0: {2: dict(offered_ops_s=1500)}}, "differ by under 1.5x"),
    ("hockey_stick", "b", {0: {2: dict(throughput_ops_s=1500.0)}}, "did not plateau"),
    ("hockey_stick", "b", {0: {2: dict(throughput_ops_s=2000.0)}}, "does not saturate"),
    ("hockey_stick", "b", {0: {2: dict(p99_ms=30.0)}}, "p99 rose only"),
    ("hockey_stick", "c", {0: {2: dict(shed=0)}}, "shed nothing past the knee"),
    ("hockey_stick", "d", {0: {1: dict(completed=621)}}, "the run did not drain"),
    # Batch lookup throughput and count at 1.4x fifo's: under the 1.5x bound.
    ("batching_pays", "e", {1: {0: dict(lookup_throughput_ops_s=180.9)}}, "under 1.5x fifo's"),
    ("batching_pays", "e", {1: {0: dict(lookups_completed=172)}}, "under 1.5x fifo's 123"),
    ("batching_pays", "f", {0: {0: dict(batches=3)}}, "fifo admission formed 3 batches"),
    ("batching_pays", "f", {1: {0: dict(mean_batch_size=1.0)}}, "did not batch"),
    ("batching_pays", "f", {1: {0: dict(prefetch_waves=0)}}, "did not batch"),
    ("resilience_pays", "a", {0: {1: dict(lost_inserts=1)}}, "lost inserts 1"),
    ("resilience_pays", "a", {0: {0: dict(crashes=0)}}, "crashes 0"),
    ("resilience_pays", "a", {0: {0: dict(conserved=0)}}, "conserved 0"),
    ("resilience_pays", "b", {0: {1: dict(ok_ops=86)}}, "resilient ok_ops 86 does not beat"),
    ("resilience_pays", "b", {0: {1: dict(goodput_ops_s=30.0)}}, "resilient goodput_ops_s"),
    ("resilience_pays", "c", {0: {0: dict(retries=2)}}, "baseline retried 2"),
    ("resilience_pays", "c", {0: {1: dict(breaker_trips=0)}}, "resilient breaker_trips is 0"),
    ("resilience_pays", "c", {0: {1: dict(brownout_level=0)}}, "resilient brownout_level is 0"),
    ("page_latches_win", "a", {1: {0: dict(linearizable=0)}}, "linearizable 0"),
    ("page_latches_win", "a", {0: {0: dict(failed=2)}}, "failed 2"),
    ("page_latches_win", "b", {1: {0: dict(p99_lookup_ms=120.0)}}, "does not beat coarse"),
    ("page_latches_win", "b", {1: {0: dict(ok_ops=140)}}, "page completed 140 ops"),
    ("page_latches_win", "c", {0: {0: dict(write_waits=0)}}, "never queued a writer"),
    ("page_latches_win", "c", {1: {0: dict(validation_failures=0)}}, "no optimistic validation"),
    ("fleet_scales", "a", {0: {0: dict(shed=0)}}, "one shard is not saturated"),
    ("fleet_scales", "a", {2: {0: dict(lookup_tput_ops_s=600.0)}}, "scaled lookups only"),
    ("fleet_scales", "b", {2: {0: dict(scan_fragments=186)}}, "dispatched 186 scan fragments"),
    ("fleet_scales", "b", {2: {0: dict(cross_shard_scans=7)}}, "over 0.75x equal-width's 9"),
    ("fleet_scales", "b", {1: {0: dict(cross_shard_scans=0)}}, "equal-width cuts split no scan"),
    ("fleet_scales", "c", {2: {0: dict(completed=800)}}, "router plane not conserved"),
    ("fleet_scales", "c",
     {role: {0: dict(probe_in_flight=0)} for role in range(3)}, "never saw a request in flight"),
    ("hedging_pays", "a", {0: {3: dict(row_count=19999)}}, "row counts diverged"),
    ("hedging_pays", "a", {0: {2: dict(checksum_failures=0)}}, "no corruption was caught"),
    # Hedged throughput at 0.85x retry-only's: under the 0.9x bound.
    ("hedging_pays", "a", {0: {3: dict(pages_per_s=243.5)}}, "under 0.9x retry-only's 286.5"),
    # Limp loss ratio 275.7 / 145.1 = 1.9: under the 2x bound.
    ("hedging_pays", "b", {0: {6: dict(pages_per_s=349.0)}}, "under 2x hedged's loss of 145.1"),
    ("hedging_pays", "b", {0: {5: dict(pages_per_s=494.1)}}, "cost retry-only nothing"),
    # 1199 appends for 400 updates: under 3 per update.
    ("checkpoints_pay", "a", {0: {0: dict(wal_appends=1199)}}, "under 3 per update"),
    ("checkpoints_pay", "a", {0: {2: dict(write_us_per_op=0)}}, "charged no write time"),
    ("checkpoints_pay", "a", {0: {2: dict(pages_flushed=0)}}, "flushed 0 pages"),
    ("checkpoints_pay", "a", {0: {2: dict(checkpoints=0)}}, "checkpoints taken: 0"),
    ("checkpoints_pay", "a", {0: {2: dict(write_us_per_op=800.0)}},
     "under never checkpointing's 808.43"),
    ("checkpoints_pay", "b", {0: {3: dict(records_replayed=364)}}, "replay did not shrink"),
    ("checkpoints_pay", "b", {0: {3: dict(recovery_us=46000.0)}}, "slower than 45644.4"),
    ("checkpoints_pay", "b", {0: {1: dict(recovery_us=0)}}, "recovery took no time"),
]


@pytest.mark.parametrize("predicate", sorted(PASSING_ROWS))
def test_predicate_accepts_its_passing_rows(predicate):
    assert set(PASSING_ROWS) == set(PREDICATES)
    assert PREDICATES[predicate].check(*PASSING_ROWS[predicate]) == []


@pytest.mark.parametrize(
    "predicate, letter, mutation, fragment",
    NEGATIVE_CONTROLS,
    ids=[f"{p}-{letter}-{i}" for i, (p, letter, __, __) in enumerate(NEGATIVE_CONTROLS)],
)
def test_negative_control_breaks_its_predicate(predicate, letter, mutation, fragment):
    rows = [[dict(row) for row in role] for role in PASSING_ROWS[predicate]]
    for role, changes in mutation.items():
        for index, fields_ in changes.items():
            rows[role][index].update(fields_)
    failures = PREDICATES[predicate].check(*rows)
    assert any(fragment in msg for msg in failures), failures


def test_every_old_claim_letter_has_a_negative_control():
    controlled = {(p, letter) for p, letter, __, __ in NEGATIVE_CONTROLS}
    missing = [
        key for key, (__, predicate, __) in OLD_CLAIMS.items()
        if predicate != GATE and (predicate, key[1]) not in controlled
    ]
    assert not missing, missing


#: Inputs the experiments used to crash on; now they skip the summary note
#: and the predicate reports the missing rows.
UNSUMMARIZABLE = [
    (fault_resilience, "hedging_pays",
     dict(num_rows=2_000, num_disks=4, error_rates=(0.05,), limp_factors=()),
     "limp factors []"),
    (recovery_overhead, "checkpoints_pay",
     dict(num_keys=500, num_updates=40, checkpoint_intervals=(10, 20)),
     "got intervals [10, 20]"),
    (recovery_overhead, "checkpoints_pay",
     dict(num_keys=500, num_updates=40, checkpoint_intervals=(0,)),
     "got intervals [0]"),
]


@pytest.mark.parametrize(
    "experiment, predicate, kwargs, fragment",
    UNSUMMARIZABLE,
    ids=["no-limp-factors", "no-interval-0", "no-nonzero-interval"],
)
def test_predicate_reports_rows_its_experiment_cannot_summarize(
    experiment, predicate, kwargs, fragment
):
    result = experiment(**kwargs)
    assert result.notes == []
    failures = PREDICATES[predicate].check(result.rows)
    assert any(fragment in msg for msg in failures), failures


CLAIM_REJECTIONS = [
    # (claim table, substring of the problem)
    (dict(predicate="speedy", scenarios=["a"]), "unknown predicate 'speedy'"),
    (dict(predicate="resilience_pays", scenarios=["nope"]), "unknown scenario 'nope'"),
    (dict(predicate="resilience_pays", scenarios=["a", "b"]),
     "reads 1 scenario(s) (storm), got 2"),
    # Both scenarios run the serve runner; these predicates read other rows.
    (dict(predicate="resilience_pays", scenarios=["a"]),
     "scenario 'a' runs the serve runner, but resilience_pays reads chaos rows"),
    (dict(predicate="fleet_scales", scenarios=["a", "b", "a"]),
     "scenario 'b' runs the serve runner, but fleet_scales reads shard rows"),
]


@pytest.mark.parametrize("table, fragment", CLAIM_REJECTIONS)
def test_invalid_claim_rejected_before_running(table, fragment):
    specs = [make(name="a"), make(name="b")]
    started = time.monotonic()
    with pytest.raises(ScenarioError) as excinfo:
        validate_matrix(specs, [Claim.from_dict(table)])
    assert fragment in str(excinfo.value), str(excinfo.value)
    assert time.monotonic() - started < 1.0


def test_malformed_claim_table_rejected_at_load(tmp_path):
    bad = tmp_path / "m.toml"
    bad.write_text(
        '[[scenario]]\nname = "a"\nrunner = "serve"\n\n'
        '[[claim]]\npredicate = "resilience_pays"\nscenarios = "a"\n'
        "[claim.bounds]\nlimit = 2\n"
    )
    with pytest.raises(ScenarioError) as excinfo:
        load_matrix(bad)
    assert "unknown key(s) bounds" in str(excinfo.value)
    assert "scenarios must be a list" in str(excinfo.value)

    single = tmp_path / "single.toml"
    single.write_text(
        '[[scenario]]\nname = "a"\nrunner = "serve"\n\n'
        '[claim]\npredicate = "resilience_pays"\nscenarios = ["a"]\n'
    )
    with pytest.raises(ScenarioError, match="must be \\[\\[claim\\]\\] tables"):
        load_matrix(single)


def test_cli_exits_2_on_a_wrong_typed_field(tmp_path, capsys):
    bad = tmp_path / "m.toml"
    bad.write_text('[[scenario]]\nname = "a"\nrunner = "serve"\nnum_rows = "8000"\n')
    assert bench_main(["scenario", "--matrix", str(bad), "--validate-only"]) == 2
    assert "num_rows must be an integer" in capsys.readouterr().err


def test_cli_writes_artifacts_then_exits_1_on_a_failed_claim(tmp_path, capsys):
    matrix = tmp_path / "m.toml"
    matrix.write_text(
        "[defaults]\n"
        'runner = "serve"\nnum_rows = 2000\nnum_disks = 4\nlookup = 0.9\nscan = 0.0\n'
        "insert = 0.1\noffered_loads = [800]\nduration_s = 0.2\n\n"
        '[[scenario]]\nname = "f"\nadmission = "fifo"\n\n'
        '[[scenario]]\nname = "b"\nadmission = "fifo"\n\n'
        '[[claim]]\npredicate = "batching_pays"\nscenarios = ["f", "b"]\n'
    )
    out = tmp_path / "out.json"
    status = bench_main(["scenario", "--matrix", str(matrix), "--json", str(out)])
    assert status == 1
    assert out.exists()
    err = capsys.readouterr().err
    assert "claim failed: claim batching_pays(f, b):" in err
    assert "batch admission did not batch" in err
