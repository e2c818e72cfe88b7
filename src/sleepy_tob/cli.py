"""Command-line front end: scenario ingestion, run orchestration, report
and figure-data emission.

Commands: ``run`` (simulate a scenario file, write a JSON-lines trace and
an oracle report, exit nonzero on any applicable oracle failure),
``check`` (model-constraint validation only), ``sweep-beta`` (CSV of the
reduced failure-ratio curve), and ``campaign`` (many randomized
constraint-respecting runs with aggregated verdicts).

Scenario files are JSON with exact ratio strings ("1/3").  A trace is
JSON-lines: a header carrying the whole scenario and its hash, then one
object per line (kind, round, actor, payload) of five kinds, each fact
written once, one line per event of the run (``World`` records one event
per run of processes that state one fact), besides the ``log`` lines:
``log`` (one distinct log, linked to its parent log),
``send`` (the votes of one round for one log, or the proposals of one round
and view of one log or of one base each extends by its sender's own value,
with the send id of the first: its index among the run's sends; the list of
senders is the line's actor and a vote's round the line's round),
``deliver`` (one receive phase by the ids its event holds, or the
receivers of one round given one run of send ids), ``decide`` (the
processes deciding one log in one round) and ``ga_record`` (each distinct
claim of participation and graded frontier, with its receivers).
Everything is deterministic given the scenario: the same file and seed
produce byte-identical outputs.  The environment variable ``SLEEPY_TOB_SEED``
overrides the scenario seed.

``main`` runs every command with CPython's cyclic collector paused and
then restores the caller's collector state (``PausedCollector``), and so
does ``run_scenario`` for callers of the Python API: a run builds no
reference cycles, so the collector would only walk its events, messages
and logs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable

from .core import Log, ProcessId, Value
from .ga import GaRecord
from .model_checks import ModelParams, beta_tilde, check_all
from .oracle import (
    OracleReport,
    Verdict,
    check_async_resilience,
    check_healing,
    check_liveness_after,
    check_safety_after,
    trace_ga_reports,
)
from .world import (
    DecideEvent,
    DeliverEvent,
    InfeasibleScheduleError,
    STRATEGIES,
    Schedule,
    ScheduleError,
    SendEvent,
    Trace,
    constant_schedule,
    generate_schedule,
    run,
)


class ScenarioError(ValueError):
    """A scenario file's shape is wrong: an unknown or missing key, a wrong
    type, a ratio that does not parse or an unknown adversary.  A value
    outside the model's domain raises a plain ``ValueError``."""


def parse_ratio(text: str | int | float) -> Fraction:
    if isinstance(text, (bool, float)):
        raise ScenarioError(f"ratios must be exact strings, got {type(text).__name__} {text}")
    try:
        return Fraction(text if isinstance(text, int) else str(text))
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"not an exact ratio: {text!r}") from None


def ratio_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def decimal_str(x: Fraction, places: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(x.numerator) / Decimal(x.denominator)
        return f"{q:.{places}f}"


SCENARIO_KEYS = {"name", "params", "schedule", "adversary", "oracles"}
REQUIRED = object()  # the default of a parameter that a file must give
#: Each scenario parameter, in the order the loader checks them, and the
#: value a file that leaves it out gets.  A parameter whose default is None
#: may be null; one that is ``REQUIRED`` reads as null when left out, so
#: leaving it out fails the integer check.
PARAMS = {"n": REQUIRED, "horizon": REQUIRED, "tau": 0, "eta": None, "pi": 0, "gamma": "0",
          "beta": "1/3", "r_a": None, "seed": 0}
RATIOS = {"gamma", "beta"}  # exact ratio strings; every other parameter is an integer
SCHEDULE_KEYS = {"constant": {"n_byz"}, "explicit": {"awake_honest", "byzantine"},
                 "generate": {"n_byz"}}
ORACLE_KEYS = {"liveness_window"}
LIVENESS_WINDOW = 8


def _object(value: object, where: str, known: Iterable[str]) -> dict:
    """``value`` if it is an object whose keys are all in ``known``."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must map to an object, got {value!r}")
    unknown = sorted(set(value).difference(known))
    if unknown:
        raise ScenarioError(f"unknown {where} key {', '.join(map(repr, unknown))}")
    return value


def _count(value: object, where: str) -> None:
    if type(value) is not int or value < 0:
        raise ScenarioError(f"{where} must be a non-negative integer, got {value!r}")


def known_adversary(name: str) -> str:
    if not isinstance(name, str) or name not in STRATEGIES:
        raise ScenarioError(f"unknown adversary {name!r}; known: {', '.join(sorted(STRATEGIES))}")
    return name


def _check_schedule_spec(spec: object) -> None:
    """A scenario's ``"schedule"``: one kind mapped to an object of that
    kind's keys; ``explicit`` lists hold one list of process ids per round."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ScenarioError(
            f"schedule must be an object with exactly one of {', '.join(SCHEDULE_KEYS)}, "
            f"got {spec!r}"
        )
    [(kind, body)] = spec.items()
    if kind not in SCHEDULE_KEYS:
        raise ScenarioError(f"unknown schedule kind {kind!r}; known: {', '.join(SCHEDULE_KEYS)}")
    body = _object(body, f"schedule {kind!r}", SCHEDULE_KEYS[kind])
    if kind != "explicit":
        if body.get("n_byz") is not None:
            _count(body["n_byz"], f"schedule {kind!r} n_byz")
        return
    for key in ("awake_honest", "byzantine"):
        rounds = body.get(key)
        if not isinstance(rounds, list):
            raise ScenarioError(
                f"schedule 'explicit' {key} must be a list of rounds, got {rounds!r}"
            )
        for r, ids in enumerate(rounds):
            if not isinstance(ids, list) or any(type(p) is not int for p in ids):
                raise ScenarioError(
                    f"schedule 'explicit' {key} round {r} must be a list of process ids, "
                    f"got {ids!r}"
                )


@dataclass(frozen=True)
class Scenario:
    """One run's inputs.  Construction checks the name, schedule, adversary
    and oracle settings and bundles the model parameters into the one
    ``ModelParams`` (``model_params()``) that the schedule carries, so an
    invalid scenario raises ``ValueError`` instead of being built."""

    name: str
    n: int
    horizon: int
    tau: int
    eta: int | None
    pi: int
    gamma: Fraction
    beta: Fraction
    r_a: int | None
    seed: int
    schedule_spec: dict
    adversary: str = "none"
    oracles: dict = field(default_factory=dict)
    _params: ModelParams = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ScenarioError(f"name must be a string, got {self.name!r}")
        _check_schedule_spec(self.schedule_spec)
        known_adversary(self.adversary)
        _object(self.oracles, "oracles", ORACLE_KEYS)
        _count(self.oracles.get("liveness_window", LIVENESS_WINDOW), "oracles liveness_window")
        params = ModelParams(
            tau=self.tau,
            eta=self.eta,
            pi=self.pi,
            gamma=self.gamma,
            beta=self.beta,
        )
        object.__setattr__(self, "_params", params)

    @staticmethod
    def from_dict(data: object) -> "Scenario":
        data = _object(data, "scenario", SCENARIO_KEYS)
        p = _object(data.get("params"), "params", PARAMS)
        spec = data.get("adversary", {})
        if not isinstance(spec, dict):
            raise ScenarioError(
                f'adversary must be an object like {{"name": "prop1"}}, got {spec!r}'
            )

        def param(key: str) -> Any:
            default = PARAMS[key]
            value = p.get(key, None if default is REQUIRED else default)
            if key in RATIOS:
                return parse_ratio(value)
            if type(value) is not int and not (value is None and default is None):
                raise ScenarioError(f"params {key} must be an integer, got {value!r}")
            return value

        return Scenario(
            name=data.get("name", "scenario"),
            **{key: param(key) for key in PARAMS},
            schedule_spec=data.get("schedule", {"constant": {}}),
            adversary=_object(spec, "adversary", {"name"}).get("name", "none"),
            oracles=data.get("oracles", {}),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": {key: ratio_str(getattr(self, key)) if key in RATIOS else getattr(self, key)
                       for key in PARAMS},
            "schedule": self.schedule_spec,
            "adversary": {"name": self.adversary},
            "oracles": self.oracles,
        }

    def canonical_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def model_params(self) -> ModelParams:
        return self._params


def load_scenario(path: str | Path) -> Scenario:
    with open(path) as fh:
        return Scenario.from_dict(json.load(fh))


def build_schedule(scenario: Scenario) -> Schedule:
    [(kind, body)] = scenario.schedule_spec.items()
    params, r_a = scenario.model_params(), scenario.r_a
    if kind == "generate":
        return generate_schedule(
            scenario.n, scenario.horizon, params, r_a, scenario.seed, n_byz=body.get("n_byz")
        )
    if kind == "constant":
        schedule = constant_schedule(scenario.n, scenario.horizon, body.get("n_byz") or 0,
                                     params, r_a=r_a)
    else:
        schedule = Schedule(
            n=scenario.n,
            horizon=scenario.horizon,
            awake_honest=tuple(frozenset(s) for s in body["awake_honest"]),
            byzantine=tuple(frozenset(s) for s in body["byzantine"]),
            r_a=r_a,
            params=params,
        )
    schedule.validate()
    return schedule


# ---------------------------------------------------------------------------
# serialization


def record_to_json(record: GaRecord, log_id: Callable[[Log], int]) -> str:
    """The payload of a ``ga_record`` line: one claim per distinct
    participation ``m`` and graded output, ordered by its first receiver,
    with its ``receivers`` in record order and the output as its frontier,
    the ``grade1`` log id (null if none) and the ``tops`` ids, longest
    first.  Each view is keyed once, however many receivers share it.  The
    rest of the record is stated by other lines: the inputs are the round's
    vote sends from senders outside ``byzantine``, a receiver's initial and
    received votes are its ``deliver`` lines folded by the latest-vote rule
    within the header's ``eta``, and every graded prefix is a ``log`` line
    reached from the frontier through parent ids.

    ``log_id`` is asked for each new view's tops, then its grade-1 log, in
    receiver order; ``trace_lines`` passes one that writes the ``log`` lines
    of a log no earlier line named."""
    keys: dict[int, tuple] = {}  # id(view) -> its claim's key
    claims: dict[tuple, list[ProcessId]] = {}  # (m, grade1 id, top ids) -> receivers
    for q, view in record.receivers.items():
        key = keys.get(id(view))
        if key is None:
            out = view.output
            tops = ", ".join(str(log_id(top)) for top in out.tops)
            grade1 = "null" if out.grade1 is None else log_id(out.grade1)
            key = keys[id(view)] = (view.m, grade1, tops)
        claims.setdefault(key, []).append(q)
    text = ", ".join(
        f'{{"grade1": {grade1}, "m": {m}, "receivers": [{", ".join(map(str, receivers))}], '
        f'"tops": [{tops}]}}'
        for (m, grade1, tops), receivers in claims.items()
    )
    return (f'{{"byzantine": [{", ".join(map(str, sorted(record.byzantine)))}], '
            f'"claims": [{text}], "synchronous": {"true" if record.synchronous else "false"}}}')


def trace_lines(trace: Trace, scenario: Scenario) -> list[str]:
    """JSON-lines rendition: a header holding the whole scenario, its hash
    and the strategy's name, then one object per line, each byte for byte
    what ``json.dumps(obj, sort_keys=True)`` writes.  Each line is written
    once, in order, in one pass over the events, one line per event.

    Each distinct log is written once, as a ``log`` line whose payload is
    its ``id``, its ``parent`` id and its last ``value`` (both null for the
    empty log, the root).  It comes before the first line naming it, with
    that line's round; ids follow first use, a log's parent first.  Sends
    are numbered in send order, which is the index a ``DeliverEvent``
    holds; ``deliver`` lines name messages by that id, and every other line
    names logs by log id.  A delivery whose ids are a ``range``, that of a
    synchronous receiver that held nothing back, is written as the
    half-open run ``from``, ``to``; any other lists its ids as ``msgs``.

    A send, decide or range-delivery event is one cohort line, whose
    ``actor`` lists the event's processes in order: a send line's ``id``
    is the event's ``first``, the k-th sender's having id ``id + k``.  Such
    a line lists its actors even when it holds one.  A proposal event that
    ``extends`` names its ``base``, and the k-th sender's log is the base
    extended by that sender's own value: the line itself states these logs,
    and each that no line named yet takes the next id, in sender order,
    with no ``log`` line.  The table of ids keys a log by its parent's id
    and its last value, so these logs are never built.  Any other proposal
    line names its one ``log``.  No proposal line holds its ticket, which
    the header's seed implies.  A ``msgs`` delivery (the event's one
    receiver) and every other line name one actor, or none.

    Every line but the header holds only integers, nulls, booleans and
    fixed strings, so each is written from a fixed per-kind template with
    its keys in sorted order.  Every fact takes O(1) bytes, but for the
    send ids an adversary chose and the lists of actors and receivers,
    which grow with the cohort that shares the fact.
    """
    # each log's id, by (parent id, last value) and None for the empty log,
    # so that a proposal run names its members' logs without building them
    log_ids: dict[tuple[int, Value] | None, int] = {}
    named: dict[Log, int] = {}  # the id of each log object looked up
    lines = [json.dumps({"kind": "header", "scenario": scenario.to_dict(),
                         "scenario_hash": scenario.canonical_hash(),
                         "strategy": trace.strategy_name}, sort_keys=True)]
    append = lines.append

    def log_id(log: Log) -> int:
        """``log``'s id, first writing a ``log`` line, in the round ``r`` of
        the line that names it, for it and each prefix no line named yet,
        parent first."""
        fresh = []
        # the walk ends at the empty log at the latest: it has no parent
        while log is not None and log not in named:
            fresh.append(log)
            log = log.parent
        for log in reversed(fresh):
            key = (named[log.parent], log.values[-1]) if log else None
            i = log_ids.get(key)
            if i is None:
                i = log_ids[key] = len(log_ids)
                parent, value = ("null", "null") if key is None else (key[0], (
                    f'{{"id": {key[1].id}, "proposer": {key[1].proposer}, "view": {key[1].view}}}'))
                append(f'{{"actor": null, "kind": "log", "payload": {{"id": {i}, '
                       f'"parent": {parent}, "value": {value}}}, "round": {r}}}')
            named[log] = i
        return named[log]  # the walk's first log, or a named one

    for e in trace.events:
        r, kind = e.round, type(e)
        if kind is SendEvent:
            if e.view is None:
                fact = f'"log": {log_id(e.log)}, "type": "vote"'
            elif e.extends:
                base = log_id(e.log)
                for p in e.senders:  # a log no line named takes the next id
                    log_ids.setdefault((base, (e.view, p, e.view)), len(log_ids))
                fact = f'"base": {base}, "type": "propose", "view": {e.view}'
            else:
                fact = f'"log": {log_id(e.log)}, "type": "propose", "view": {e.view}'
            actors = e.senders
            rest = f'"id": {e.first}, "kind": "send", "payload": {{"msg": {{{fact}}}}}'
        elif kind is DeliverEvent:
            if type(e.ids) is not range:
                append(f'{{"actor": {e.receivers[0]}, "kind": "deliver", '
                       f'"payload": {{"msgs": [{", ".join(map(str, e.ids))}]}}, "round": {r}}}')
                continue
            rest = f'"kind": "deliver", "payload": {{"from": {e.ids.start}, "to": {e.ids.stop}}}'
            actors = e.receivers
        elif kind is DecideEvent:
            rest = f'"kind": "decide", "payload": {{"log": {log_id(e.log)}}}'
            actors = e.pids
        else:
            append(f'{{"actor": null, "kind": "ga_record", '
                   f'"payload": {record_to_json(e, log_id)}, "round": {r}}}')
            continue
        append(f'{{"actor": [{", ".join(map(str, actors))}], {rest}, "round": {r}}}')
    return lines


# ---------------------------------------------------------------------------
# orchestration


def decision_latencies(trace: Trace) -> dict[str, Any]:
    """Per decided value: rounds from its introduction to its first
    appearance in a decided log."""
    first_decided: dict[Value, int] = {}
    seen: set[Log] = set()
    for e in trace.decide_events():
        # a log seen before had every value of its chain recorded then
        log = e.log
        while log and log not in seen:
            seen.add(log)
            first_decided.setdefault(log.values[-1], e.round)
            log = log.parent
    # the mean is exact, so the order of the sum does not matter
    latencies = [decided - introduced for v, decided in first_decided.items()
                 if (introduced := trace.first_input_round(v)) is not None]
    if not latencies:
        return {"decided_values": 0, "mean_decision_latency": None}
    mean = Fraction(sum(latencies), len(latencies))
    return {
        "decided_values": len(latencies),
        "mean_decision_latency": ratio_str(mean),
        "mean_decision_latency_decimal": decimal_str(mean, 4),
    }


class PausedCollector:
    """A ``with`` block in which CPython's cyclic collector does not run.

    Entry records whether the collector is enabled and disables it; exit
    enables it again only if it was, on an exception too, so a caller that
    disabled it keeps it disabled.  A judged run builds no reference
    cycles, so reference counting frees all it makes, and the collector
    would only walk, again and again, the events, messages and logs the run
    keeps until its verdicts are in.

    A paused collector still counts allocations, so a tracked allocation
    after ``gc.enable()`` may start a young-generation collection over
    every object the block left alive.  ``__exit__`` therefore enables
    the collector last, and a function that returns from inside the block
    frees its locals, or hands them to its caller, before it allocates
    again.  ``main`` holds one around every command, whose frame, with the
    run it made, is gone before the block ends; ``run_scenario`` holds its
    own, which inside ``main`` leaves the collector paused.
    """

    def __enter__(self) -> None:
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.was_enabled:
            gc.enable()


def run_scenario(scenario: Scenario) -> tuple[Trace, dict]:
    """Simulate one scenario and assemble its oracle report.

    The exit code in the report is nonzero iff a gating property fails.
    Each property enters the report through ``gate(key, report, gating)``,
    whose third argument is that property's gating rule, written once
    beside the check it gates.  A rule's outcome is reported as
    ``gating``, and a failure that does not gate is reported all the same;
    ``None`` means the property always gates and states no rule
    (``safety_after_0``).  ``ga_properties`` always gates too: the
    agreement properties judge their own quorum hypotheses per round.

    The run is simulated and judged with the cyclic collector paused, and
    the caller's collector state is restored on return and on an exception.
    A Python API caller with the collector enabled that keeps the returned
    trace pays for one young-generation collection over it at its next
    allocation; one that drops it at once pays nothing.  The commands run
    inside ``main``'s pause, so there it pays nothing either way.
    """
    with PausedCollector():
        schedule = build_schedule(scenario)
        strategy = STRATEGIES[scenario.adversary]()
        trace = run(schedule, strategy, scenario.seed)
        model_report = check_all(schedule)
        liveness_window = scenario.oracles.get("liveness_window", LIVENESS_WINDOW)
        reports: dict[str, dict] = {}
        failures: list[str] = []

        def gate(key: str, report: OracleReport, gating: bool | None = None) -> None:
            reports[key] = report.to_dict()
            if gating is not None:
                reports[key]["gating"] = gating
            if gating is not False and report.verdict is Verdict.FAIL:
                failures.append(report.name)

        gate("safety_after_0", check_safety_after(trace, 0))

        ga_reports = trace_ga_reports(trace)
        ga_failures = []
        applicable_rounds = 0
        for rnd, per_check in ga_reports.items():
            if any(rep.verdict is not Verdict.NOT_APPLICABLE for rep in per_check.values()):
                applicable_rounds += 1
            for rep in per_check.values():
                if rep.verdict is Verdict.FAIL:
                    ga_failures.append({"round": rnd, **rep.to_dict()})
        reports["ga_properties"] = {
            "rounds_checked": applicable_rounds,
            "failures": ga_failures,
        }
        if ga_failures:
            failures.append("ga_properties")

        in_model = model_report.all_pass
        if schedule.r_a is not None:
            # in model, and the parameters leave no gap
            gate("async_resilience", check_async_resilience(trace, schedule.r_a, schedule.pi),
                 in_model and not schedule.params.async_resilience_gaps())
            # churn and the failure ratio hold
            gate("healing", check_healing(trace, schedule.r_a + schedule.pi,
                                          liveness_window=liveness_window),
                 model_report.sleepy_pass)
        else:
            # probabilistic with Byzantine leaders in play, so only fault-free
            # in-model runs gate on it
            gate("liveness_after_0", check_liveness_after(trace, 0, liveness_window),
                 model_report.sleepy_pass and not schedule.byzantine[schedule.horizon])

        summary = {
            "decide_events": sum(len(e.pids) for e in trace.decide_events()),
            "distinct_decided": len(trace.decided_up_to(trace.horizon)),
            **decision_latencies(trace),
        }
        report = {
            "scenario": scenario.to_dict(),
            "scenario_hash": scenario.canonical_hash(),
            "in_model": in_model,
            "model_checks": model_report.to_dict(),
            "oracles": reports,
            "summary": summary,
            "failures": failures,
            "exit_code": 0 if not failures else 1,
        }
        return trace, report


# ---------------------------------------------------------------------------
# commands


def seed_override(cli_seed: int | None) -> int | None:
    """``--seed`` if given, else ``SLEEPY_TOB_SEED`` if set, else None.

    Raises ``ValueError`` when the environment value is not an integer.
    """
    if cli_seed is not None:
        return cli_seed
    text = os.environ.get("SLEEPY_TOB_SEED")
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SLEEPY_TOB_SEED must be an integer, got {text!r}") from None


#: What loading a scenario, building its schedule and running it may raise
#: because of the scenario itself.
SCENARIO_ERRORS = (OSError, ValueError, ScheduleError, InfeasibleScheduleError)


def scenario_error(exc: Exception) -> str:
    """The line ``run`` and ``check`` print for one of ``SCENARIO_ERRORS``."""
    if isinstance(exc, (OSError, json.JSONDecodeError, ScenarioError)):
        return f"error: cannot load scenario: {exc}"
    if isinstance(exc, (ScheduleError, InfeasibleScheduleError)):
        return f"schedule error: {exc}"
    return f"domain error: {exc}"


def cmd_run(args: argparse.Namespace) -> int:
    try:
        seed = seed_override(args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = load_scenario(args.scenario)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
        trace, report = run_scenario(scenario)
    except SCENARIO_ERRORS as exc:
        print(scenario_error(exc), file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "trace.jsonl").write_text("\n".join(trace_lines(trace, scenario)) + "\n")
    (outdir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    status = "ok" if report["exit_code"] == 0 else "FAIL"
    print(
        f"{scenario.name}: {status}; decided {report['summary']['distinct_decided']} logs; "
        f"mean latency {report['summary'].get('mean_decision_latency')}"
    )
    if report["failures"]:
        print(json.dumps({"failures": report["failures"], "oracles": report["oracles"]},
                         sort_keys=True))
    return report["exit_code"]


def cmd_check(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
        schedule = build_schedule(scenario)
    except SCENARIO_ERRORS as exc:
        print(scenario_error(exc), file=sys.stderr)
        return 2
    report = check_all(schedule)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0 if report.all_pass else 1


def cmd_sweep_beta(args: argparse.Namespace) -> int:
    steps = args.steps
    if steps < 2:
        print("error: need at least 2 steps", file=sys.stderr)
        return 2
    rows = ["gamma,beta_tilde"]
    try:
        beta = parse_ratio(args.beta)
        for k in range(steps):
            gamma = beta * k / steps
            rows.append(f"{decimal_str(gamma)},{decimal_str(beta_tilde(beta, gamma))}")
    except ValueError as exc:
        print(f"error: --beta: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {steps} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def aggregate_runs(reports: list[dict], *, infeasible: int = 0, errors: int = 0) -> dict:
    """Fold per-run reports into campaign totals.  A failing run under
    satisfied model assumptions becomes a replayable counterexample; a
    failing run whose assumptions were already broken is only flagged.
    ``infeasible`` and ``errors`` count runs that produced no report (no
    schedule fits the model, or the run raised); ``runs`` counts them too."""
    counts = {
        "runs": infeasible + errors,
        "in_model": 0,
        "oracle_pass": 0,
        "out_of_model_failures": 0,
        "infeasible": infeasible,
        "error": errors,
    }
    counterexamples: list[dict] = []
    latencies: list[Fraction] = []
    for report in reports:
        counts["runs"] += 1
        if report["in_model"]:
            counts["in_model"] += 1
        if report["failures"]:
            if report["in_model"]:
                counterexamples.append(report["scenario"])
            else:
                counts["out_of_model_failures"] += 1
        else:
            counts["oracle_pass"] += 1
        lat = report["summary"].get("mean_decision_latency")
        if lat is not None:
            latencies.append(Fraction(lat))
    return {
        "counts": counts,
        "counterexamples": counterexamples,
        "mean_decision_latency": (
            ratio_str(sum(latencies) / len(latencies)) if latencies else None
        ),
    }


def cmd_campaign(args: argparse.Namespace) -> int:
    try:
        base_seed = seed_override(args.seed) or 0
        if args.seeds < 1:
            raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
        strategies = [known_adversary(name) for name in args.strategies.split(",")]
        base = Scenario(
            name="campaign",
            n=args.n,
            horizon=args.horizon,
            tau=args.tau,
            eta=args.eta,
            pi=args.pi,
            gamma=parse_ratio(args.gamma),
            beta=parse_ratio(args.beta),
            r_a=args.r_a if args.pi >= 1 else None,
            seed=base_seed,
            schedule_spec={"generate": {"n_byz": args.n_byz}},
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    failed: dict[str, list[str]] = {"infeasible": [], "error": []}
    for i in range(args.seeds):
        scenario = replace(
            base, name=f"campaign-{i}", seed=base_seed + i,
            adversary=strategies[i % len(strategies)],
        )
        try:
            report = run_scenario(scenario)[1]  # its trace is freed here
        except InfeasibleScheduleError as exc:
            failed["infeasible"].append(str(exc))
            continue
        except ScheduleError as exc:  # structural, so every seed would raise it
            print(scenario_error(exc), file=sys.stderr)
            return 2
        except Exception as exc:  # one broken run must not end the campaign
            failed["error"].append(f"{type(exc).__name__}: {exc}")
            continue
        reports.append(report)
    if not reports:
        reasons = "; ".join(f"{kind}: {msgs[0]}" for kind, msgs in failed.items() if msgs)
        print(f"error: no campaign run completed ({reasons})", file=sys.stderr)
        return 2
    aggregate = aggregate_runs(
        reports, infeasible=len(failed["infeasible"]), errors=len(failed["error"])
    )
    text = json.dumps(aggregate, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 1 if aggregate["counterexamples"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleepy-tob",
        description="simulate and verify an asynchrony-resilient dynamically "
        "available total-order broadcast",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")

    p_check = sub.add_parser("check", help="validate a scenario against the model")
    p_check.add_argument("scenario")

    p_sweep = sub.add_parser("sweep-beta", help="emit the reduced failure-ratio curve")
    p_sweep.add_argument("--beta", default="1/3")
    p_sweep.add_argument("--steps", type=int, default=100)
    p_sweep.add_argument("--out", default=None)

    p_camp = sub.add_parser("campaign", help="run many randomized scenarios")
    p_camp.add_argument("--seeds", type=int, default=20)
    p_camp.add_argument("--seed", type=int, default=None)
    p_camp.add_argument("--n", type=int, default=20)
    p_camp.add_argument("--n-byz", dest="n_byz", type=int, default=None)
    p_camp.add_argument("--horizon", type=int, default=20)
    p_camp.add_argument("--tau", type=int, default=4)
    p_camp.add_argument("--eta", type=int, default=4)
    p_camp.add_argument("--pi", type=int, default=2)
    p_camp.add_argument("--r-a", dest="r_a", type=int, default=6)
    p_camp.add_argument("--gamma", default="1/10")
    p_camp.add_argument("--beta", default="1/3")
    p_camp.add_argument("--strategies", default="prop1,split_decision")
    p_camp.add_argument("--out", default=None)
    return parser


#: Built once: each subcommand ``name`` runs ``cmd_<name>`` (dashes as
#: underscores), which ``main`` looks up when it runs, so a replaced
#: ``cmd_run`` is the one called.
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` with ``PARSER`` and run its command with the cyclic
    collector paused (``PausedCollector``); the caller's collector state is
    restored on return and on an exception."""
    args = PARSER.parse_args(argv)
    with PausedCollector():
        try:
            return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
        except OSError as exc:
            if exc.filename is None:  # not a path, e.g. a closed stdout
                raise
            # every command reports its own input errors, so the path is an --out
            print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
