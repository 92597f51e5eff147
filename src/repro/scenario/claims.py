"""Claims: named predicates over a matrix's results.

A matrix file states what its results must show in ``[[claim]]`` tables::

    [[claim]]
    predicate = "batching_pays"
    scenarios = ["admission-fifo", "admission-batch"]

``predicate`` names an entry of :data:`PREDICATES`; ``scenarios`` binds
the predicate's roles, in order, to scenarios of the same matrix, each
of which must run the predicate's runner.  A predicate's bounds are the
module constants just above it.  A claim is checked against the
matrix's specs (:meth:`Claim.problems`) before any cell runs; after the
run, :func:`evaluate_claims` hands each predicate its scenarios' rows
and collects the failure messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..bench.results import FigureResult
from .spec import ScenarioError, ScenarioSpec

__all__ = ["Claim", "PREDICATES", "Predicate", "evaluate_claims"]


@dataclass(frozen=True)
class Predicate:
    """A registered check: one row list per role in, failure messages out."""

    check: Callable[..., list[str]]
    runner: str  # the runner every role's scenario must use
    roles: tuple[str, ...]


#: Predicate name -> :class:`Predicate`; the ``predicate`` key of a claim.
PREDICATES: dict[str, Predicate] = {}


def _predicate(runner: str, *roles: str):
    def register(check):
        PREDICATES[check.__name__] = Predicate(check, runner, roles)
        return check

    return register


def _pairs(left: list[dict], right: list[dict], key: str):
    """Rows of two scenarios matched on ``key`` (sorted), or a mismatch message."""
    a = {row[key]: row for row in left}
    b = {row[key]: row for row in right}
    if not a or set(a) != set(b):
        return [], [f"the scenarios must share {key} values, got {sorted(a)} vs {sorted(b)}"]
    return [(a[k], b[k]) for k in sorted(a)], []


KEEP_UP_MIN = 0.9  # lightest load: throughput >= this x offered
OVERLOAD_STEP_MIN = 1.5  # top load >= this x the knee (the load below it)
PLATEAU_MIN, PLATEAU_MAX = 0.8, 1.25  # top / knee throughput
SATURATED_MAX = 0.8  # top load: throughput <= this x offered
P99_RISE_MIN = 2.0  # top-load p99 >= this x lightest-load p99


@_predicate("serve", "sweep")
def hockey_stick(sweep) -> list[str]:
    """The saturation curve: keep up below the knee, plateau and shed past it."""
    rows = sorted(sweep, key=lambda r: r["offered_ops_s"])
    if len(rows) < 3:
        return [f"needs >= 3 offered loads to see a knee, got {len(rows)}"]
    low, knee, top = rows[0], rows[-2], rows[-1]
    failures = []
    for row in rows:
        if row["issued"] != row["completed"] + row["shed"]:
            failures.append(
                f"at {row['offered_ops_s']} ops/s issued {row['issued']} != completed "
                f"{row['completed']} + shed {row['shed']}: the run did not drain"
            )
    if low["shed"] != 0:
        failures.append(f"the lightest load {low['offered_ops_s']} ops/s shed {low['shed']} ops")
    if low["throughput_ops_s"] < KEEP_UP_MIN * low["offered_ops_s"]:
        failures.append(
            f"at {low['offered_ops_s']} ops/s throughput {low['throughput_ops_s']} is "
            f"under {KEEP_UP_MIN:g}x offered"
        )
    if top["offered_ops_s"] < OVERLOAD_STEP_MIN * knee["offered_ops_s"]:
        failures.append(
            f"the top two loads {knee['offered_ops_s']} and {top['offered_ops_s']} ops/s "
            f"differ by under {OVERLOAD_STEP_MIN:g}x"
        )
    plateau = top["throughput_ops_s"] / knee["throughput_ops_s"] if knee["throughput_ops_s"] else 0.0
    if not PLATEAU_MIN <= plateau <= PLATEAU_MAX:
        failures.append(
            f"throughput did not plateau: top/knee ratio {plateau:.2f} outside "
            f"[{PLATEAU_MIN:g}, {PLATEAU_MAX:g}]"
        )
    if top["throughput_ops_s"] > SATURATED_MAX * top["offered_ops_s"]:
        failures.append(
            f"at {top['offered_ops_s']} ops/s throughput {top['throughput_ops_s']} is "
            f"over {SATURATED_MAX:g}x offered: the top load does not saturate"
        )
    if top["p99_ms"] < P99_RISE_MIN * low["p99_ms"]:
        failures.append(
            f"p99 rose only from {low['p99_ms']} to {top['p99_ms']} ms "
            f"(needs {P99_RISE_MIN:g}x)"
        )
    if top["shed"] <= 0 or not (top["shed"] > knee["shed"] or knee["shed"] > 0):
        failures.append(
            f"the admission bound shed nothing past the knee (shed {knee['shed']} "
            f"then {top['shed']})"
        )
    return failures


LOOKUP_SPEEDUP_MIN = 1.5  # batch lookup throughput and completed lookups >= this x fifo's


@_predicate("serve", "fifo", "batch")
def batching_pays(fifo, batch) -> list[str]:
    """Level-wise batches beat individual admission on lookup throughput."""
    pairs, failures = _pairs(fifo, batch, "offered_ops_s")
    for f, b in pairs:
        load = f"at {f['offered_ops_s']} ops/s"
        if f["batches"] != 0 or f["prefetch_waves"] != 0:
            failures.append(
                f"{load} fifo admission formed {f['batches']} batches and "
                f"{f['prefetch_waves']} prefetch waves"
            )
        if b["batches"] <= 0 or b["mean_batch_size"] <= 1.0 or b["prefetch_waves"] <= 0:
            failures.append(
                f"{load} batch admission did not batch: {b['batches']} batches of mean "
                f"size {b['mean_batch_size']}, {b['prefetch_waves']} prefetch waves"
            )
        if b["lookup_throughput_ops_s"] < LOOKUP_SPEEDUP_MIN * f["lookup_throughput_ops_s"]:
            failures.append(
                f"{load} batch lookup throughput {b['lookup_throughput_ops_s']} is under "
                f"{LOOKUP_SPEEDUP_MIN:g}x fifo's {f['lookup_throughput_ops_s']}"
            )
        if b["lookups_completed"] < LOOKUP_SPEEDUP_MIN * f["lookups_completed"]:
            failures.append(
                f"{load} batch admission completed {b['lookups_completed']} lookups, "
                f"under {LOOKUP_SPEEDUP_MIN:g}x fifo's {f['lookups_completed']}"
            )
    return failures


@_predicate("chaos", "storm")
def resilience_pays(storm) -> list[str]:
    """Under one fault storm the resilient clients beat the bare ones."""
    rows = {row["mode"]: row for row in storm}
    if set(rows) != {"baseline", "resilient"}:
        return [f"needs one baseline and one resilient row, got modes {sorted(rows)}"]
    base, res = rows["baseline"], rows["resilient"]
    failures = []
    for mode, row in rows.items():
        if row["conserved"] != 1 or row["crashes"] < 1 or row["lost_inserts"] != 0:
            failures.append(
                f"{mode}: conserved {row['conserved']}, crashes {row['crashes']}, "
                f"lost inserts {row['lost_inserts']} (needs 1, >= 1, 0)"
            )
    for metric in ("ok_ops", "goodput_ops_s"):
        if res[metric] <= base[metric]:
            failures.append(f"resilient {metric} {res[metric]} does not beat baseline {base[metric]}")
    if base["retries"] != 0 or base["fast_fails"] != 0:
        failures.append(
            f"baseline retried {base['retries']} times and fast-failed {base['fast_fails']}"
        )
    for metric in ("retries", "breaker_trips", "fast_fails", "brownout_level"):
        if res[metric] < 1:
            failures.append(f"resilient {metric} is {res[metric]}: the machinery never engaged")
    return failures


@_predicate("concurrency", "coarse", "page")
def page_latches_win(coarse, page) -> list[str]:
    """Page latches beat one tree latch on p99 lookups under write load."""
    failures = []
    for row in coarse + page:
        if row["linearizable"] != 1 or row["failed"] != 0:
            failures.append(
                f"{row['mode']} seed {row['seed']}: linearizable {row['linearizable']}, "
                f"failed {row['failed']}"
            )
    pairs, mismatch = _pairs(coarse, page, "seed")
    failures += mismatch
    for c, p in pairs:
        seed = f"seed {c['seed']}"
        if p["p99_lookup_ms"] >= c["p99_lookup_ms"]:
            failures.append(
                f"{seed}: page p99 lookup {p['p99_lookup_ms']} ms does not beat "
                f"coarse {c['p99_lookup_ms']} ms"
            )
        if p["ok_ops"] < c["ok_ops"]:
            failures.append(f"{seed}: page completed {p['ok_ops']} ops, coarse {c['ok_ops']}")
        if c["write_waits"] <= 0:
            failures.append(f"{seed}: the coarse latch never queued a writer")
        if p["validation_failures"] <= 0:
            failures.append(f"{seed}: page mode saw no optimistic validation failure")
    return failures


SCALING_MIN = 2.5  # top load: 4-shard / 1-shard lookup throughput
CROSS_SHARD_MAX = 0.75  # optimized / equal-width cross-shard scans


@_predicate("shard", "single", "equal", "optimized")
def fleet_scales(single, equal, optimized) -> list[str]:
    """A 4-shard fleet scales lookups; optimized cuts split fewer scans."""
    failures = []
    for row in single + equal + optimized:
        if row["issued"] != row["completed"] + row["shed"] + row["failed"]:
            failures.append(
                f"{row['shard_count']} shard(s) {row['placement']} at "
                f"{row['offered_ops_s']} ops/s: router plane not conserved"
            )
    if not any(row["probe_in_flight"] > 0 for row in single + equal + optimized):
        failures.append("the mid-run conservation probe never saw a request in flight")
    pairs, mismatch = _pairs(single, optimized, "offered_ops_s")
    failures += mismatch
    if pairs:
        base, wide = pairs[-1]
        if base["shed"] <= 0:
            failures.append(f"one shard is not saturated at {base['offered_ops_s']} ops/s")
        ratio = wide["lookup_tput_ops_s"] / base["lookup_tput_ops_s"] if base["lookup_tput_ops_s"] else 0.0
        if ratio < SCALING_MIN:
            failures.append(
                f"{wide['shard_count']} shards scaled lookups only {ratio:.2f}x over one "
                f"(needs {SCALING_MIN:g}x)"
            )
    pairs, mismatch = _pairs(equal, optimized, "offered_ops_s")
    failures += mismatch
    for ew, opt in pairs:
        load = f"at {ew['offered_ops_s']} ops/s"
        if opt["scan_fragments"] >= ew["scan_fragments"]:
            failures.append(
                f"{load} optimized cuts dispatched {opt['scan_fragments']} scan fragments, "
                f"equal-width {ew['scan_fragments']}"
            )
        if ew["cross_shard_scans"] <= 0:
            failures.append(f"{load} equal-width cuts split no scan")
        if opt["cross_shard_scans"] > CROSS_SHARD_MAX * ew["cross_shard_scans"]:
            failures.append(
                f"{load} optimized cuts split {opt['cross_shard_scans']} scans, over "
                f"{CROSS_SHARD_MAX:g}x equal-width's {ew['cross_shard_scans']}"
            )
    return failures


HEDGED_MIN = 0.9  # hedged / retry-only scan throughput at every error rate
LIMP_LOSS_RATIO_MIN = 2.0  # worst limp: retry-only loss >= this x hedged loss


@_predicate("fault-resilience", "faults")
def hedging_pays(faults) -> list[str]:
    """Hedged reads catch every fault and recover a limping disk's loss."""
    row = {(r["panel"], r["x"], r["mode"]): r for r in faults}
    rates = sorted({r["x"] for r in faults if r["panel"] == "a"})
    limps = sorted({r["x"] for r in faults if r["panel"] == "b" and r["mode"] != "clean"})
    if not rates or not limps or ("b", 1.0, "clean") not in row:
        return [
            f"needs error-rate rows, limp rows and a clean row, got error rates "
            f"{rates} and limp factors {limps}"
        ]
    failures = []
    counts = sorted({r["row_count"] for r in faults})
    if len(counts) != 1:
        failures.append(f"row counts diverged under faults: {counts}")
    top = row[("a", rates[-1], "retry only")]
    if top["checksum_failures"] <= 0:
        failures.append(f"at error rate {rates[-1]} no corruption was caught")
    for rate in rates:
        hedged, retry = row[("a", rate, "hedged")], row[("a", rate, "retry only")]
        if hedged["pages_per_s"] < HEDGED_MIN * retry["pages_per_s"]:
            failures.append(
                f"at error rate {rate} hedged reads scan {hedged['pages_per_s']} pages/s, "
                f"under {HEDGED_MIN:g}x retry-only's {retry['pages_per_s']}"
            )
    clean = row[("b", 1.0, "clean")]["pages_per_s"]
    loss_retry = clean - row[("b", limps[-1], "retry only")]["pages_per_s"]
    loss_hedge = clean - row[("b", limps[-1], "hedged")]["pages_per_s"]
    if loss_retry <= 0:
        failures.append(f"limping x{limps[-1]} cost retry-only nothing; scale the scan up")
    elif loss_retry < LIMP_LOSS_RATIO_MIN * loss_hedge:
        failures.append(
            f"limping x{limps[-1]}: retry-only loses {loss_retry:.1f} pages/s, under "
            f"{LIMP_LOSS_RATIO_MIN:g}x hedged's loss of {loss_hedge:.1f}"
        )
    return failures


APPENDS_PER_UPDATE_MIN = 3  # BEGIN + one page image + COMMIT


@_predicate("recovery", "recovery")
def checkpoints_pay(recovery) -> list[str]:
    """Checkpoints trade runtime page forces for less redo work."""
    row = {(r["panel"], r["checkpoint_interval"]): r for r in recovery}
    intervals = sorted({r["checkpoint_interval"] for r in recovery})
    if 0 not in intervals or len(intervals) < 2:
        return [f"needs interval 0 and a nonzero interval, got intervals {intervals}"]
    tightest = intervals[1]
    failures = []
    for interval in intervals:
        runtime = row[("a", interval)]
        if runtime["wal_appends"] < APPENDS_PER_UPDATE_MIN * runtime["updates"]:
            failures.append(
                f"interval {interval}: {runtime['wal_appends']} WAL appends for "
                f"{runtime['updates']} updates, under {APPENDS_PER_UPDATE_MIN} per update"
            )
        if runtime["write_us_per_op"] <= 0:
            failures.append(f"interval {interval}: logging charged no write time")
        if row[("b", interval)]["recovery_us"] <= 0:
            failures.append(f"interval {interval}: recovery took no time")
    never, tight = row[("a", 0)], row[("a", tightest)]
    if tight["pages_flushed"] <= never["pages_flushed"]:
        failures.append(
            f"interval {tightest} flushed {tight['pages_flushed']} pages, never "
            f"checkpointing {never['pages_flushed']}"
        )
    if tight["checkpoints"] <= 0 or never["checkpoints"] != 0:
        failures.append(
            f"checkpoints taken: {tight['checkpoints']} at interval {tightest}, "
            f"{never['checkpoints']} at interval 0"
        )
    if tight["write_us_per_op"] < never["write_us_per_op"]:
        failures.append(
            f"interval {tightest} paid {tight['write_us_per_op']} us of writes per update, "
            f"under never checkpointing's {never['write_us_per_op']}"
        )
    never, tight = row[("b", 0)], row[("b", tightest)]
    if tight["records_replayed"] >= never["records_replayed"]:
        failures.append(
            f"replay did not shrink: {tight['records_replayed']} records at interval "
            f"{tightest}, {never['records_replayed']} at interval 0"
        )
    if tight["recovery_us"] > never["recovery_us"]:
        failures.append(
            f"recovery at interval {tightest} took {tight['recovery_us']} us, slower "
            f"than {never['recovery_us']} us at interval 0"
        )
    return failures


@dataclass(frozen=True)
class Claim:
    """One ``[[claim]]`` table: a predicate and the scenarios it reads."""

    predicate: str
    scenarios: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.predicate}({', '.join(self.scenarios)})"

    @classmethod
    def from_dict(cls, data: dict) -> "Claim":
        """Build a claim from its TOML table, rejecting a malformed shape."""
        unknown = sorted(set(data) - {"predicate", "scenarios"})
        predicate = data.get("predicate")
        scenarios = data.get("scenarios")
        problems = []
        if unknown:
            problems.append(
                f"claim {predicate!r}: unknown key(s) {', '.join(unknown)}; a claim "
                "holds only predicate and scenarios"
            )
        if not isinstance(predicate, str):
            problems.append(f"claim {predicate!r}: predicate must be a predicate name string")
        if not isinstance(scenarios, list) or not all(isinstance(s, str) for s in scenarios):
            problems.append(f"claim {predicate!r}: scenarios must be a list of scenario names")
        if problems:
            raise ScenarioError(problems)
        return cls(predicate, tuple(scenarios))

    def problems(self, specs: Sequence[ScenarioSpec]) -> list[str]:
        """Every way this claim does not fit its predicate or the matrix."""
        tag = f"claim {self.label}"
        pred = PREDICATES.get(self.predicate)
        if pred is None:
            return [f"{tag}: unknown predicate {self.predicate!r}; pick one of {', '.join(PREDICATES)}"]
        p = []
        if len(self.scenarios) != len(pred.roles):
            p.append(
                f"{tag}: {self.predicate} reads {len(pred.roles)} scenario(s) "
                f"({', '.join(pred.roles)}), got {len(self.scenarios)}"
            )
        runner_of = {spec.name: spec.runner for spec in specs}
        for name in self.scenarios:
            if name not in runner_of:
                p.append(f"{tag}: unknown scenario {name!r}; this matrix has {', '.join(runner_of)}")
            elif runner_of[name] != pred.runner:
                p.append(
                    f"{tag}: scenario {name!r} runs the {runner_of[name]} runner, but "
                    f"{self.predicate} reads {pred.runner} rows"
                )
        return p

    def evaluate(self, rows_by_name: Mapping[str, list[dict]]) -> list[str]:
        """Run the predicate on its scenarios' rows; failures name the claim."""
        rows = [rows_by_name[name] for name in self.scenarios]
        return [f"claim {self.label}: {msg}" for msg in PREDICATES[self.predicate].check(*rows)]


def evaluate_claims(
    claims: Sequence[Claim],
    specs: Sequence[ScenarioSpec],
    results: Sequence[FigureResult],
) -> list[str]:
    """Every failure message of every claim over one matrix run."""
    rows_by_name = {spec.name: result.rows for spec, result in zip(specs, results)}
    return [msg for claim in claims for msg in claim.evaluate(rows_by_name)]
