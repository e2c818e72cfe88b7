"""The trace writer against a reference that builds one dict per line and
encodes it with ``json.dumps(sort_keys=True)``.

``reference_trace_lines`` below, with ``reference_msg_to_json`` and
``reference_record_to_json``, is written from the format alone: it numbers
logs by slicing, names a ``deliver`` line's sends by the run of ids a
``range`` event holds or by its listed ids, and groups a record's
receivers into claims by comparing each receiver's ``m`` and frontier ids
with the claims so far.  It names a log's unnamed prefixes by slicing it,
shortest first, where the writer walks up parent links; a record's logs are
each receiver's tops, then its grade-1 log, and every log the frontier's
expansion grades must be named after them.  A proposal of a base
extended by its sender's own value names the base, and its log takes the
next id with no ``log`` dict unless a line named it before.  It writes one
dict per member of each event (``helpers.expand_events``), and
``reference_merge`` then states the cohort rule from the format alone:
adjacent dicts of one kind and round with equal payloads, each a send, a
decision or a range delivery, become one dict whose actor lists theirs, a
send joining only with the next send id.  The writer writes one line per
event, so the two agree only where every event is a whole run, as
``World`` records them.  Both writers must give equal lines on the six
shipped scenarios, one default ``campaign`` seed, ``World`` runs of random
bounded schedules with and without a window, a ``World`` run whose
strategy's messages join and break the cohorts' runs, and hand-built
traces, each event the run ``World`` would record: one that delivers a tuple of ids,
a range and nothing, decides the empty log and holds one record whose
receivers share a view, one whose receivers do not, one with a malformed
frontier next to two receivers that hold equal claims in different view
objects, and one whose frontier names two unnamed logs on different
branches.  A second hand-built trace holds
runs that must break a cohort line: two vote logs in one round, a
Byzantine sender voting two logs in one round, a decide run split by a
different log, two range deliveries of one round with different ``from``
(a process waking) or ``to``, and a vote, decide and delivery run each
followed by the same fact in the next round; and one that must join it, a
Byzantine vote for a cohort's log right after the cohort.  A third holds
proposal runs: round 0's genesis proposals, a cohort split across two
heads, a Byzantine proposal of another sender's value, one own-value
proposal sent twice, the same fact in the next round, a cohort one of
whose logs a Byzantine vote named first, and proposals of the empty log.

Every line must also read back to itself through ``json``, which pins the
templates to the encoder's spacing and key order where no golden hash
reaches.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pytest
from helpers import (
    Decided,
    Delivered,
    Sent,
    TraceLogs,
    byzantine_genesis,
    expand,
    expand_events,
    frontier,
    late_start_schedule,
    random_bounded_schedule,
    sends,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepy_tob.cli import Scenario, load_scenario, run_scenario, trace_lines
from sleepy_tob.core import GENESIS, Log, ProposeMsg, Value, VoteMsg, vrf_eval
from sleepy_tob.ga import GaOutput, GaRecord, InitialVoteSet, ReceiverView
from sleepy_tob.model_checks import ModelParams
from sleepy_tob.world import (
    STRATEGIES,
    AdversaryStrategy,
    DecideEvent,
    DeliverEvent,
    SendEvent,
    Trace,
    World,
    constant_schedule,
    run,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = sorted(path.stem for path in SCENARIOS.glob("*.json"))

# ---------------------------------------------------------------------------
# reference: one dict per line, encoded by json.dumps


def reference_msg_to_json(msg: VoteMsg | ProposeMsg, log_id: Callable[[Log], int],
                          log_ids: dict[Log, int]) -> dict:
    """The message without its sender, which is the line's actor, without a
    vote's round, which is the line's round, and without a proposal's
    ticket, which the header's seed implies.  ``log_id`` names a log,
    writing its unnamed prefixes' ``log`` dicts.  A proposal of a base
    extended by the sender's own value names the base; its log, if no line
    named it, takes the next id with no ``log`` dict."""
    if isinstance(msg, VoteMsg):
        return {"type": "vote", "log": log_id(msg.log)}
    own = Value(msg.view, msg.sender, msg.view)
    if msg.log and msg.log.values[-1] == own:
        base = log_id(Log(msg.log.values[:-1]))
        log_ids.setdefault(msg.log, len(log_ids))
        return {"type": "propose", "view": msg.view, "base": base}
    return {"type": "propose", "view": msg.view, "log": log_id(msg.log)}


def reference_record_to_json(record: GaRecord, log_id: Callable[[Log], int]) -> dict:
    claims: list[dict] = []
    for q, view in record.receivers.items():
        grade1 = None if view.output.grade1 is None else log_id(view.output.grade1)
        tops = [log_id(top) for top in view.output.tops]
        for claim in claims:
            if (claim["m"], claim["grade1"], claim["tops"]) == (view.m, grade1, tops):
                claim["receivers"].append(q)
                break
        else:
            claims.append({"m": view.m, "grade1": grade1, "tops": tops, "receivers": [q]})
    return {
        "synchronous": record.synchronous,
        "byzantine": sorted(record.byzantine),
        "claims": claims,
    }


def states_cohort_fact(obj: dict) -> bool:
    """Whether a per-event dict is one that a cohort line may hold: a send,
    a decision or a delivery of a run of send ids."""
    kind = obj["kind"]
    return kind in ("send", "decide") or kind == "deliver" and "from" in obj["payload"]


def reference_merge(objs: list[dict]) -> list[dict]:
    """Adjacent dicts of one kind and round that state one fact (equal
    payloads) become one, whose actor lists theirs in order; a send joins
    only with the next send id.  Every dict that may join one has an actor
    list, however many it holds."""
    merged: list[dict] = []
    for obj in objs:
        if not states_cohort_fact(obj):
            merged.append(obj)
            continue
        last = merged[-1] if merged else None
        if (last is not None and type(last["actor"]) is list
                and (last["kind"], last["round"], last["payload"])
                == (obj["kind"], obj["round"], obj["payload"])
                and (obj["kind"] != "send" or obj["id"] == last["id"] + len(last["actor"]))):
            last["actor"].append(obj["actor"])
        else:
            merged.append({**obj, "actor": [obj["actor"]]})
    return merged


def reference_trace_lines(trace: Trace, scenario: Scenario, seed: int) -> list[str]:
    log_ids: dict[Log, int] = {}
    sent = 0
    header = {
        "kind": "header",
        "scenario": scenario.to_dict(),
        "scenario_hash": scenario.canonical_hash(),
        "strategy": trace.strategy_name,
    }
    objs: list[dict] = []

    def write(obj: dict, r: int) -> None:
        objs.append({**obj, "round": r})

    def introduce(log: Log, r: int) -> int:
        for k in range(len(log) + 1):
            prefix = Log(log.values[:k])
            if prefix not in log_ids:
                log_ids[prefix] = len(log_ids)
                write({"kind": "log", "actor": None, "payload": {
                    "id": log_ids[prefix],
                    "parent": log_ids[Log(log.values[:k - 1])] if k else None,
                    "value": log.values[k - 1]._asdict() if k else None,
                }}, r)
        return log_ids[log]

    for e in expand_events(trace.events, seed):
        if isinstance(e, Sent):
            msg = reference_msg_to_json(e.msg, lambda log: introduce(log, e.round), log_ids)
            obj = {"kind": "send", "id": sent, "actor": e.msg.sender, "payload": {"msg": msg}}
            sent += 1
        elif isinstance(e, Delivered):
            if isinstance(e.ids, range):
                payload = {"from": e.ids.start, "to": e.ids.stop}
            else:
                payload = {"msgs": list(e.ids)}
            obj = {"kind": "deliver", "actor": e.receiver, "payload": payload}
        elif isinstance(e, Decided):
            introduce(e.log, e.round)
            obj = {"kind": "decide", "actor": e.pid, "payload": {"log": log_ids[e.log]}}
        else:
            assert isinstance(e, GaRecord)
            for view in e.receivers.values():
                for log in (*view.output.tops, view.output.grade1):
                    if log is not None:
                        introduce(log, e.round)
                assert all(log in log_ids for log in expand(view.output))
            obj = {"kind": "ga_record", "actor": None,
                   "payload": reference_record_to_json(e, log_ids.__getitem__)}
        write(obj, e.round)
    return [json.dumps(obj, sort_keys=True) for obj in (header, *reference_merge(objs))]


# ---------------------------------------------------------------------------
# inputs


def assert_same_lines(trace: Trace, scenario: Scenario, seed: int | None = None) -> list[str]:
    """The writer's lines, which must be the reference's; ``seed`` is the
    run's, the scenario's unless given."""
    lines = trace_lines(trace, scenario)
    assert lines == reference_trace_lines(trace, scenario,
                                          scenario.seed if seed is None else seed)
    return lines


def assert_lines_read_back(lines: list[str]) -> None:
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True) == line


#: The header reads only the scenario and its hash; traces that come from
#: no scenario file borrow this one's.
HEADER_SCENARIO = load_scenario(SCENARIOS / "sync_faultfree.json")


def default_campaign_scenario() -> Scenario:
    """The first run of ``sleepy-tob campaign`` with every option left at
    its default."""
    return Scenario(
        name="campaign-0", n=20, horizon=20, tau=4, eta=4, pi=2,
        gamma=Fraction(1, 10), beta=Fraction(1, 3), r_a=6, seed=0,
        schedule_spec={"generate": {"n_byz": None}}, adversary="prop1",
    )


def test_shipped_scenarios_are_all_compared():
    assert len(NAMES) == 6


@pytest.mark.parametrize("name", NAMES)
def test_shipped_scenarios_match_reference_and_read_back(name):
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    trace, _ = run_scenario(scenario)
    assert_lines_read_back(assert_same_lines(trace, scenario))


def test_default_campaign_trace_matches_reference_and_reads_back():
    scenario = default_campaign_scenario()
    trace, _ = run_scenario(scenario)
    assert_lines_read_back(assert_same_lines(trace, scenario))


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(["none", "prop1", "split_decision"]),
    schedule_seed=st.integers(0, 2**16),
    window=st.none() | st.tuples(st.integers(0, 7), st.integers(1, 4)),
    seed=st.integers(0, 2**16),
)
def test_world_runs_match_reference(preset, schedule_seed, window, seed):
    """Random bounded schedules, given a window that ends before the last
    round when one is drawn; ``prop1``'s window attack needs two Byzantine
    processes, so with fewer it runs without one."""
    schedule = random_bounded_schedule(random.Random(schedule_seed))
    if window is not None and (preset != "prop1" or len(schedule.byzantine[0]) >= 2):
        r_a = min(window[0], schedule.horizon - 3)
        pi = min(window[1], schedule.horizon - r_a - 2)
        schedule = replace(schedule, r_a=r_a, params=replace(schedule.params, pi=pi))
        schedule.validate()
    assert_same_lines(run(schedule, STRATEGIES[preset](), seed), HEADER_SCENARIO, seed)


@pytest.mark.parametrize("make_strategy", [STRATEGIES["none"], byzantine_genesis],
                         ids=["none", "byzantine_genesis"])
def test_a_round_0_without_a_well_behaved_process_writes_no_line_of_theirs(make_strategy):
    """Nobody well-behaved is awake at round 0, so it writes the strategy's
    lines and the delivery to the round-1 processes alone: no send line
    without an actor and, without a strategy message, no log line."""
    lines = assert_same_lines(run(late_start_schedule(), make_strategy(), 3), HEADER_SCENARIO, 3)
    round0 = [obj["kind"] for obj in map(json.loads, lines[1:]) if obj["round"] == 0]
    assert round0 == (["log", "log", "send"] if make_strategy is byzantine_genesis else []) + [
        "deliver"]
    assert all(obj["actor"] for obj in map(json.loads, lines[1:]) if obj["kind"] == "send")


def view(grades: dict[Log, int], m: int) -> ReceiverView:
    return ReceiverView(InitialVoteSet(), frozenset(), frontier(grades), m)


def test_hand_built_trace_matches_reference():
    a = Log((GENESIS,))
    b = a.extended(Value(1, 0, 1))
    c = a.extended(Value(2, 1, 1))
    d = c.extended(Value(3, 1, 2))
    e = a.extended(Value(4, 2, 2))
    f = b.extended(Value(5, 0, 3))
    g = f.extended(Value(6, 0, 4))
    h = e.extended(Value(7, 2, 3))
    ticket = vrf_eval(HEADER_SCENARIO.seed, 1, 1)
    shared = view({a: 1, b: 0}, 2)
    # grade1 e lies under no top: the frontier bounded divergence exists to
    # fail, and the writer must still name e
    malformed = ReceiverView(InitialVoteSet(), frozenset(), GaOutput(e, (b,)), 2)
    events = (
        SendEvent(0, 0, (1,), c, 1, False, (ticket,)),
        SendEvent(1, 1, (0,), b, None, False, ()),
        SendEvent(1, 2, (1,), c, None, False, ()),
        DeliverEvent(1, (0,), (1, 2)),
        DeliverEvent(1, (1,), range(3)),
        DeliverEvent(1, (2,), ()),
        GaRecord(1, True, {0: b, 1: c}, frozenset([3]), {0: shared, 1: shared, 2: shared}),
        DecideEvent(2, (0,), Log()),
        GaRecord(2, False, {0: b}, frozenset([3]),
                 {0: view({b: 1}, 1), 1: view({d: 0, a: 1}, 2), 2: view({}, 0)}),
        DecideEvent(2, (1,), d),
        GaRecord(3, False, {0: b}, frozenset([3]),
                 {0: malformed, 1: view({d: 0}, 2), 2: view({d: 0}, 2)}),
        # tops g and h are unnamed and on different branches: f and g, the
        # prefixes of the first top, are numbered before h
        GaRecord(4, False, {0: b}, frozenset([3]), {0: view({g: 0, h: 0}, 2)}),
    )
    schedule = constant_schedule(4, 4, 1, ModelParams(tau=2, eta=2, pi=0, gamma=Fraction(0),
                                                      beta=Fraction(1, 3)))
    lines = assert_same_lines(Trace(schedule, "hand-built", events), HEADER_SCENARIO)
    assert_lines_read_back(lines)
    delivered = [json.loads(line)["payload"] for line in lines if '"deliver"' in line]
    assert delivered == [{"msgs": [1, 2]}, {"from": 0, "to": 3}, {"msgs": []}]
    records = [json.loads(line)["payload"]["claims"] for line in lines if '"ga_record"' in line]
    assert [[claim["receivers"] for claim in claims] for claims in records] == [
        [[0, 1, 2]], [[0], [1], [2]], [[0], [1, 2]], [[0]],
    ]
    fresh = [obj["payload"]["value"]["id"] for obj in map(json.loads, lines)
             if obj["kind"] == "log" and obj["round"] == 4]
    assert fresh == [5, 6, 7]


def test_cohort_lines_break_where_the_fact_changes():
    """Runs of adjacent vote sends, decisions and range deliveries are one
    line while kind, round and fact hold: a vote line breaks at a second
    log in its round and at a new round, and holds a Byzantine vote for the
    cohort's log right after it; a decide run breaks at a different log and
    a new round; a delivery run at a different ``from`` (a process waking
    with an older cursor), a different ``to`` and a new round."""
    a = Log((GENESIS,))
    b = a.extended(Value(1, 0, 1))

    def votes(r, first, senders, log):
        return SendEvent(r, first, senders, log, None, False, ())

    events = (
        # process 4 is Byzantine: it votes the second cohort's log, then the first's
        votes(1, 0, (0, 1), a), votes(1, 2, (2, 4), b), votes(1, 4, (4,), a),
        votes(2, 5, (0, 1), a),
        DecideEvent(2, (0, 1), a), DecideEvent(2, (2,), b), DecideEvent(2, (3,), a),
        DecideEvent(3, (0,), a),
        DeliverEvent(3, (0, 1), range(0, 9)), DeliverEvent(3, (3,), range(2, 9)),
        DeliverEvent(3, (2,), range(0, 9)),
        DeliverEvent(4, (0,), range(0, 9)), DeliverEvent(4, (1,), range(0, 10)),
    )
    schedule = constant_schedule(5, 5, 1, ModelParams(tau=2, eta=2, pi=0, gamma=Fraction(0),
                                                      beta=Fraction(1, 3)))
    lines = assert_same_lines(Trace(schedule, "hand-built", events), HEADER_SCENARIO)
    assert_lines_read_back(lines)
    facts = [(obj["kind"], obj["round"], obj["actor"], obj.get("id"), obj["payload"])
             for obj in map(json.loads, lines[1:]) if obj["kind"] != "log"]

    def voted(log_id):
        return {"msg": {"log": log_id, "type": "vote"}}

    assert facts == [
        ("send", 1, [0, 1], 0, voted(1)),
        ("send", 1, [2, 4], 2, voted(2)),
        ("send", 1, [4], 4, voted(1)),
        ("send", 2, [0, 1], 5, voted(1)),
        ("decide", 2, [0, 1], None, {"log": 1}),
        ("decide", 2, [2], None, {"log": 2}),
        ("decide", 2, [3], None, {"log": 1}),
        ("decide", 3, [0], None, {"log": 1}),
        ("deliver", 3, [0, 1], None, {"from": 0, "to": 9}),
        ("deliver", 3, [3], None, {"from": 2, "to": 9}),
        ("deliver", 3, [2], None, {"from": 0, "to": 9}),
        ("deliver", 4, [0], None, {"from": 0, "to": 9}),
        ("deliver", 4, [1], None, {"from": 0, "to": 10}),
    ]


def test_proposal_lines_break_where_the_fact_changes():
    """Runs of adjacent proposal sends are one line while round, view and
    fact hold: one log, or one base each sender extends by its own value.
    A line breaks at a Byzantine proposal of a value that is not its
    sender's own, at a cohort's second head, and at the same fact in the
    next round.  A line stays whole, and correct, when a member's log was
    named before (here by a Byzantine vote), when one own-value proposal is
    sent twice in a row, and when the proposed log is the empty log.  Each
    line reads back to its proposals, tickets drawn from the header's seed."""
    seed = HEADER_SCENARIO.seed
    a = Log((GENESIS,))
    b = a.extended(Value(1, 0, 1))

    def own(base, p, view):
        return base.extended(Value(view, p, view))

    def propose(r, first, senders, view, log, extends=False):
        tickets = tuple(vrf_eval(seed, p, view) for p in senders)
        return SendEvent(r, first, senders, log, view, extends, tickets)

    c = own(a, 0, 2)
    events = (
        propose(0, 0, (0, 1, 2), 1, a),
        # round 2 splits across heads a and b; Byzantine 4 proposes 1's
        # value, then its own twice
        propose(2, 3, (0, 1), 2, a, extends=True),
        propose(2, 5, (2, 3), 2, b, extends=True),
        propose(2, 7, (4,), 2, own(a, 1, 2)),
        propose(2, 8, (4, 4), 2, a, extends=True),
        propose(3, 10, (5,), 2, a, extends=True),
        # a Byzantine vote names 1's log before 1 proposes it
        SendEvent(4, 11, (4,), own(c, 1, 3), None, False, ()),
        propose(4, 12, (0, 1, 2), 3, c, extends=True),
        propose(4, 15, (5, 6), 3, Log()),
    )
    schedule = constant_schedule(7, 5, 2, ModelParams(tau=2, eta=2, pi=0, gamma=Fraction(0),
                                                      beta=Fraction(1, 3)))
    lines = assert_same_lines(Trace(schedule, "hand-built", events), HEADER_SCENARIO)
    assert_lines_read_back(lines)
    objs = [json.loads(line) for line in lines[1:]]
    facts = [(obj["kind"], obj["round"], obj["actor"], obj.get("id"), obj["payload"])
             for obj in objs]

    def proposed(view, **fact):
        return {"msg": {**fact, "type": "propose", "view": view}}

    assert facts == [
        ("log", 0, None, None, {"id": 0, "parent": None, "value": None}),
        ("log", 0, None, None, {"id": 1, "parent": 0, "value": GENESIS._asdict()}),
        ("send", 0, [0, 1, 2], 0, proposed(1, log=1)),
        # c and 1's log take ids 2 and 3; b is named, then 2's and 3's logs
        ("send", 2, [0, 1], 3, proposed(2, base=1)),
        ("log", 2, None, None, {"id": 4, "parent": 1, "value": Value(1, 0, 1)._asdict()}),
        ("send", 2, [2, 3], 5, proposed(2, base=4)),
        ("send", 2, [4], 7, proposed(2, log=3)),
        ("send", 2, [4, 4], 8, proposed(2, base=1)),
        ("send", 3, [5], 10, proposed(2, base=1)),
        ("log", 4, None, None, {"id": 9, "parent": 2, "value": Value(3, 1, 3)._asdict()}),
        ("send", 4, [4], 11, {"msg": {"log": 9, "type": "vote"}}),
        ("send", 4, [0, 1, 2], 12, proposed(3, base=2)),
        ("send", 4, [5, 6], 15, proposed(3, log=0)),
    ]
    logs, sent = TraceLogs(), []
    for obj in objs:
        if obj["kind"] == "log":
            logs.read_log_line(obj["payload"])
        elif obj["payload"]["msg"]["type"] == "propose":
            sent += logs.proposals(obj, seed)
        else:
            sent.append(VoteMsg(obj["actor"][0], obj["round"], logs[obj["payload"]["msg"]["log"]]))
    assert sent == [e.msg for e in sends(events, seed)]
    # ids 5-8 and 10-11 went to the allotted logs, in sender order
    assert [logs.ids[log] for log in (own(b, 2, 2), own(b, 3, 2), own(a, 4, 2), own(a, 5, 2),
                                      own(c, 0, 3), own(c, 2, 3))] == [5, 6, 7, 8, 10, 11]


def test_world_joins_a_strategy_message_to_the_run_of_its_fact():
    """``World`` records a strategy's message in the last event when the
    message states its fact, as the cohort line takes it: in round 1
    Byzantine votes for the cohort's log join the cohort's vote run, and
    their votes for another log are a run of their own; in round 2 a
    Byzantine proposal of its own value on the cohort's base joins the
    cohort's proposal run, one of another sender's value breaks it, and the
    same own-value proposal twice is one run.  The strategy reads each fact
    off the round's events, which hold the cohort's runs when it is asked.
    The lines are the reference's, the send log is the events' expansion,
    and the run steps as the per-process reference world does."""
    from test_world_receive_reference import assert_same_run

    other = Log((Value(99, 4, 1),))

    def messages(world, r):
        # the cohort's last run, or in the per-process reference world the
        # last member's message: its vote log, or its proposal's base
        last = world.events[-1]
        log = last.log if isinstance(last, SendEvent) else last.msg.log
        if r == 1:
            return [VoteMsg(4, 1, log), VoteMsg(5, 1, log),
                    VoteMsg(4, 1, other), VoteMsg(5, 1, other)]
        if r == 2:
            base = log if isinstance(last, SendEvent) else log.parent
            fours, fives = (base.extended(Value(2, p, 2)) for p in (4, 5))
            return [ProposeMsg(4, 2, fours, vrf_eval(world.seed, 4, 2)),
                    *(ProposeMsg(5, 2, log, vrf_eval(world.seed, 5, 2))
                      for log in (fours, fives, fives))]
        return []

    def strategy():
        return AdversaryStrategy("joins", messages, lambda world, r, q, cand: cand)

    schedule = constant_schedule(6, 6, 2, ModelParams(tau=2, eta=2, pi=0, gamma=Fraction(0),
                                                      beta=Fraction(1, 3)))
    world = World(schedule, strategy(), 3)
    trace = world.run()
    runs = [(e.round, e.senders, e.view, e.extends) for e in trace.send_events() if e.round in (1, 2)]
    assert runs == [
        (1, (0, 1, 2, 3, 4, 5), None, False), (1, (4, 5), None, False),
        (2, (0, 1, 2, 3), None, False),
        (2, (0, 1, 2, 3, 4), 2, True), (2, (5,), 2, False), (2, (5, 5), 2, True),
    ]
    assert [e.msg for e in sends(trace.events, 3)] == world.sent
    assert_lines_read_back(assert_same_lines(trace, HEADER_SCENARIO, 3))
    assert_same_run(schedule, strategy, 3)
