"""The trace oracles against the code they replaced.

``_decision_timeline``, ``delivered_at``, ``check_safety_after``,
``check_liveness_after`` and ``check_healing`` below are kept verbatim as
they were when every check rebuilt the decision timeline and looked up each
(process, round) pair's delivered log by a scan from the start of that
process's timeline; ``check_async_resilience`` is kept verbatim as it was
when it compared every later decision with the logs decided by ``r_a``, and
safety scanned every trace, before both passed at once on a trace whose
decided logs form one chain.  The conflicting-pair witness
(``_safety_witness``) and the healing round (``first_full_view_after``) are
the oracle's own, which those changes left as they were.  On the six
shipped scenarios and on default ``campaign`` traces of every strategy in
``STRATEGIES``, with the default expiry and with none, both versions must
give the same reports, verdicts, details and witnesses alike, for every
round ``r`` in ``[0, horizon]`` (asynchrony resilience: every ``r_a`` in
``[0, horizon)``).

``FiledTrace`` keeps ``Trace``'s event index (``_by_kind``) and the
accessors that read it verbatim, as they were when every event was filed
by kind in one pass on first use.  On the same traces, ``Trace`` must give
the same decide, send, vote-send and propose-send events, agreement
records, input rounds, chain verdict and decided logs at every round, by
value, by class and in order.
"""

from dataclasses import replace
from fractions import Fraction
from functools import cache, cached_property
from pathlib import Path

from sleepy_tob import oracle
from sleepy_tob.cli import Scenario, load_scenario, run_scenario
from sleepy_tob.core import (
    EMPTY_LOG,
    Log,
    ProcessId,
    ProposeMsg,
    Value,
    VoteMsg,
    conflicts,
    is_chain,
    is_prefix,
)
from sleepy_tob.ga import GaRecord
from sleepy_tob.oracle import (
    OracleReport,
    Verdict,
    _safety_witness,
    first_full_view_after,
)
from sleepy_tob.world import STRATEGIES, DecideEvent, DeliverEvent, Event, SendEvent, Trace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# ---------------------------------------------------------------------------
# reference: the trace oracles as they were


def _decision_timeline(trace: Trace) -> dict[ProcessId, list[tuple[int, Log]]]:
    """Per process, the delivered log after each decide event (latest
    decision wins unless it is a prefix of what is already delivered)."""
    timeline: dict[ProcessId, list[tuple[int, Log]]] = {}
    for e in trace.decide_events():
        points = timeline.setdefault(e.pid, [])
        prev = points[-1][1] if points else EMPTY_LOG
        new = prev if is_prefix(e.log, prev) else e.log
        points.append((e.round, new))
    return timeline


def delivered_at(
    timeline: dict[ProcessId, list[tuple[int, Log]]], pid: ProcessId, r: int
) -> Log:
    log = EMPTY_LOG
    for rd, val in timeline.get(pid, []):
        if rd <= r:
            log = val
        else:
            break
    return log


def check_safety_after(trace: Trace, r: int) -> OracleReport:
    """No two well-behaved awake processes hold incompatible delivered logs
    at any two rounds after ``r`` (the same process at two rounds counts)."""
    timeline = _decision_timeline(trace)
    sched = trace.schedule
    snapshots: list[tuple[ProcessId, int, Log]] = []
    for pid in sorted(timeline):
        last: Log | None = None
        for r2 in range(r + 1, sched.horizon + 1):
            if pid not in sched.awake_honest[r2]:
                continue
            log = delivered_at(timeline, pid, r2)
            if last is None or log != last:
                snapshots.append((pid, r2, log))
                last = log
    if is_chain(log for _, _, log in snapshots):
        return OracleReport("safety_after", Verdict.PASS, detail=f"after round {r}")
    return OracleReport(
        "safety_after",
        Verdict.FAIL,
        detail=f"conflicting delivered logs after round {r}",
        witness=_safety_witness(snapshots),
    )


def check_liveness_after(trace: Trace, r: int, window: int) -> OracleReport:
    """Every well-behaved process awake through [r, r+window] delivers, by
    round r+window, a log containing some value introduced at or after r.

    Values are introduced as the fresh tip of a well-behaved proposal, in
    the round ``Trace.first_input_round`` gives.
    """
    sched = trace.schedule
    if r + window > sched.horizon:
        return OracleReport(
            "liveness_after",
            Verdict.INCONCLUSIVE,
            detail=f"horizon {sched.horizon} shorter than round {r}+{window}",
        )
    rounds = range(r, r + window + 1)
    steady = [
        p
        for p in range(sched.n)
        if all(p in sched.awake_honest[r2] for r2 in rounds)
    ]
    if not steady:
        return OracleReport(
            "liveness_after", Verdict.INCONCLUSIVE, detail="no continuously awake process"
        )
    fresh = trace.inputs_since(r)
    if not fresh:
        return OracleReport(
            "liveness_after", Verdict.INCONCLUSIVE, detail="no value introduced after r"
        )
    timeline = _decision_timeline(trace)
    for p in steady:
        log = delivered_at(timeline, p, r + window)
        if not any(v in fresh for v in log.values):
            return OracleReport(
                "liveness_after",
                Verdict.FAIL,
                detail=f"no post-round-{r} value delivered within {window} rounds",
                witness={"process": p, "delivered": repr(log)},
            )
    return OracleReport(
        "liveness_after", Verdict.PASS, detail=f"window [{r}, {r + window}]"
    )


def check_healing(
    trace: Trace, last_async_round: int, *, liveness_window: int
) -> OracleReport:
    """Safety and liveness both hold after the first view that is entirely
    past the window (recovery-after-asynchrony, one-view healing lag)."""
    v = first_full_view_after(last_async_round)
    r_heal = 2 * v
    if r_heal >= trace.horizon:
        return OracleReport(
            "healing", Verdict.INCONCLUSIVE, detail="trace ends inside or at the window"
        )
    safety = check_safety_after(trace, r_heal)
    liveness = check_liveness_after(trace, r_heal, liveness_window)
    if safety.verdict is Verdict.FAIL or liveness.verdict is Verdict.FAIL:
        bad = safety if safety.verdict is Verdict.FAIL else liveness
        return OracleReport(
            "healing",
            Verdict.FAIL,
            detail=f"{bad.name} failed after healing round {r_heal}",
            witness=bad.witness,
        )
    if liveness.verdict is Verdict.INCONCLUSIVE:
        return OracleReport("healing", Verdict.INCONCLUSIVE, detail=liveness.detail)
    return OracleReport("healing", Verdict.PASS, detail=f"healed from round {r_heal}")


def check_async_resilience(trace: Trace, r_a: int, pi: int) -> OracleReport:
    """No decision conflicting with the logs decided by round ``r_a``:
    during the window (and one round beyond) for processes awake at r_a,
    and afterwards for every well-behaved process."""
    d_ra = trace.decided_up_to(r_a)
    h_ra = trace.schedule.awake_honest[r_a]
    for e in trace.decide_events():
        if e.round <= r_a:
            continue
        conflicting = [d for d in d_ra if conflicts(e.log, d)]
        if not conflicting:
            continue
        in_window = e.round <= r_a + pi + 1
        if not in_window or e.pid in h_ra:
            return OracleReport(
                "async_resilience",
                Verdict.FAIL,
                detail="decision conflicts with a pre-window decision",
                witness={
                    "process": e.pid,
                    "round": e.round,
                    "log": repr(e.log),
                    "conflicts_with": repr(conflicting[0]),
                },
            )
    return OracleReport(
        "async_resilience", Verdict.PASS, detail=f"window [{r_a + 1}, {r_a + pi}]"
    )


class FiledTrace:
    """A trace's events filed by kind, with the accessors that read the
    files; ``schedule`` and ``events`` are the trace's."""

    def __init__(self, trace: Trace):
        self.schedule, self.events = trace.schedule, trace.events

    @cached_property
    def _by_kind(self) -> dict[type, list[Event]]:
        """Events by class, never by value (events of different kinds may
        be equal tuples); send events are also filed under their message
        class (``VoteMsg``, ``ProposeMsg``)."""
        by_kind: dict[type, list[Event]] = {
            SendEvent: [], DeliverEvent: [], DecideEvent: [], GaRecord: [],
            VoteMsg: [], ProposeMsg: [],
        }
        for e in self.events:
            by_kind[type(e)].append(e)
            if type(e) is SendEvent:
                by_kind[type(e.msg)].append(e)
        return by_kind

    @cached_property
    def _input_rounds(self) -> dict[Value, int]:
        rounds: dict[Value, int] = {}
        for e in self._by_kind[ProposeMsg]:
            if e.msg.sender in self.schedule.awake_honest[e.round] and e.msg.log.values:
                rounds.setdefault(e.msg.log.values[-1], e.round)
        return rounds

    @cached_property
    def decisions_form_chain(self) -> bool:
        """Whether the distinct logs decided in the trace are pairwise
        compatible (``core.is_chain``)."""
        return is_chain(e.log for e in self._by_kind[DecideEvent])

    def decide_events(self) -> list[DecideEvent]:
        return list(self._by_kind[DecideEvent])

    def send_events(self) -> list[SendEvent]:
        return list(self._by_kind[SendEvent])

    def vote_sends(self) -> list[SendEvent]:
        return list(self._by_kind[VoteMsg])

    def propose_sends(self) -> list[SendEvent]:
        return list(self._by_kind[ProposeMsg])

    def ga_records(self) -> dict[int, GaRecord]:
        return {rec.round: rec for rec in self._by_kind[GaRecord]}

    def decided_up_to(self, r: int) -> list[Log]:
        """Distinct logs decided by well-behaved processes in rounds <= r."""
        seen: dict[Log, None] = {}
        for e in self._by_kind[DecideEvent]:
            if e.round <= r:
                seen.setdefault(e.log, None)
        return list(seen)

    def first_input_round(self, value: Value) -> int | None:
        """Round in which ``value`` was introduced: its first appearance as
        the fresh tip of a proposal from a well-behaved process."""
        return self._input_rounds.get(value)


# ---------------------------------------------------------------------------
# the two versions on the same traces

#: Liveness windows tried at every round: none, a short one and the default.
WINDOWS = (0, 3, 8)


def shipped_traces() -> dict[str, Trace]:
    return {path.stem: run_scenario(load_scenario(path))[0]
            for path in sorted(SCENARIOS.glob("*.json"))}


def campaign_traces(seeds_per_strategy: int = 3, etas=(4,)) -> dict[str, Trace]:
    """Traces of ``sleepy-tob campaign`` runs with its default settings, for
    every strategy, the no-op one included, and each expiry in ``etas``."""
    base = Scenario(name="campaign", n=20, horizon=20, tau=4, eta=4, pi=2,
                    gamma=Fraction(1, 10), beta=Fraction(1, 3), r_a=6, seed=0,
                    schedule_spec={"generate": {"n_byz": 4}})
    return {
        f"{name}-eta{eta}-{seed}":
            run_scenario(replace(base, eta=eta, seed=seed, adversary=name))[0]
        for name in sorted(STRATEGIES)
        for eta in etas
        for seed in range(seeds_per_strategy)
    }


@cache
def compared_traces() -> dict[str, Trace]:
    """The shipped traces and the campaign traces with and without expiry."""
    traces = {**shipped_traces(), **campaign_traces(etas=(4, 0))}
    assert len(traces) == 6 + 3 * 2 * len(STRATEGIES)
    return traces


def reports(trace: Trace, safety, liveness, healing) -> list[dict]:
    out = []
    for r in range(trace.horizon + 1):
        out.append(safety(trace, r).to_dict())
        for window in WINDOWS:
            out.append(liveness(trace, r, window).to_dict())
            out.append(healing(trace, r, liveness_window=window).to_dict())
    return out


def test_trace_oracles_match_reference_on_shipped_and_campaign_traces():
    """Campaign runs without expiry (eta 0) break safety while processes come
    and go, so witnesses also name rounds at which a process wakes up.  Some
    trace's decided logs conflict while safety after an early enough round
    still passes, so the scan's pass branch is compared too, not only the
    one-chain shortcut (after the horizon the scan passes trivially)."""
    verdicts = set()
    scanned_pass = False
    for name, trace in compared_traces().items():
        ours = reports(trace, oracle.check_safety_after, oracle.check_liveness_after,
                       oracle.check_healing)
        reference = reports(trace, check_safety_after, check_liveness_after, check_healing)
        assert ours == reference, name
        verdicts.update((rep["name"], rep["verdict"]) for rep in ours)
        if not is_chain(trace.decided_up_to(trace.horizon)):
            scanned_pass |= any(check_safety_after(trace, r).verdict is Verdict.PASS
                                for r in range(trace.horizon))
    assert scanned_pass
    # every verdict of every check occurs, so failing witnesses are compared too
    assert verdicts >= {
        ("safety_after", "pass"), ("safety_after", "fail"),
        ("liveness_after", "pass"), ("liveness_after", "fail"),
        ("liveness_after", "inconclusive"),
        ("healing", "pass"), ("healing", "fail"), ("healing", "inconclusive"),
    }


def test_trace_keeps_the_reference_timeline():
    for name, trace in {**shipped_traces(), **campaign_traces(1, etas=(4, 0))}.items():
        assert trace.decision_timeline == _decision_timeline(trace), name


def test_async_resilience_matches_reference_on_shipped_and_campaign_traces():
    """Every ``r_a`` before the horizon, with the trace's window length (1
    when it has none); traces whose decisions conflict fail it at early
    enough rounds, so both verdicts and the failing witnesses are compared."""
    verdicts = set()
    for name, trace in compared_traces().items():
        pi = trace.schedule.pi or 1
        for r_a in range(trace.horizon):
            ours = oracle.check_async_resilience(trace, r_a, pi).to_dict()
            assert ours == check_async_resilience(trace, r_a, pi).to_dict(), (name, r_a)
            verdicts.add(ours["verdict"])
    assert verdicts == {"pass", "fail"}


def filed(trace) -> dict:
    """Everything the event index answers, each event with its class, so
    events of different kinds that are equal tuples still differ."""
    def typed(events):
        return [(type(e), type(getattr(e, "msg", None)), e) for e in events]

    values = {e.msg.log.values[-1] for e in trace.events
              if type(e) is SendEvent and e.msg.log.values}
    return {
        "decide_events": typed(trace.decide_events()),
        "send_events": typed(trace.send_events()),
        "vote_sends": typed(trace.vote_sends()),
        "propose_sends": typed(trace.propose_sends()),
        "ga_records": [(r, type(rec), rec) for r, rec in trace.ga_records().items()],
        "first_input_round": [(v, trace.first_input_round(v)) for v in sorted(values)],
        "decisions_form_chain": trace.decisions_form_chain,
        "decided_up_to": [trace.decided_up_to(r) for r in range(trace.schedule.horizon + 1)],
    }


def test_trace_files_its_events_as_the_reference_index():
    """Traces whose decisions form one chain and traces whose decisions
    conflict are both compared; a value no proposal introduced reads
    ``None`` in both."""
    chains = set()
    for name, trace in compared_traces().items():
        ours = filed(trace)
        assert ours == filed(FiledTrace(trace)), name
        assert trace.first_input_round(Value(-1, -1, -1)) is None
        chains.add(ours["decisions_form_chain"])
    assert chains == {True, False}
