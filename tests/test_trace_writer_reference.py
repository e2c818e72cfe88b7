"""The trace writer against the one it replaced.

``reference_trace_lines`` below, with ``reference_msg_to_json`` and
``reference_record_to_json``, is ``cli.trace_lines`` verbatim, docstrings
left out, as it was when every line was a dict encoded by
``json.dumps(sort_keys=True)``, send ids were looked up by message equality
and every receiver's output was scanned for new logs.  The one change: a
``DeliverEvent`` now names sends by index, so the reference's ``deliver``
line first resolves each index to its message through the trace's sends.
The reference reads every graded log from ``GaOutput.grades``, now the
expansion of the output's frontier, where the writer introduces only the
tops and lets the parent walk add their prefixes.  Both writers must give equal lines on the six shipped scenarios, one
default ``campaign`` seed, ``World`` runs of random bounded schedules with
and without a window, and a hand-built trace that delivers a tuple of ids,
a range and nothing, decides the empty log and holds one record whose
receivers share a view and one whose receivers do not.  The lines differ
only where two sends carry equal messages: the reference names both by
the first one's id.  ``tests/test_world.py`` pins that case.

Every line must also read back to itself through ``json``, which pins the
templates to the encoder's spacing and key order where no golden hash
reaches.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

import pytest
from helpers import fields_key, frontier, random_bounded_schedule
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepy_tob.cli import Scenario, load_scenario, run_scenario, trace_lines
from sleepy_tob.core import GENESIS, Log, ProposeMsg, Value, VoteMsg
from sleepy_tob.ga import GaRecord, InitialVoteSet, ReceiverView
from sleepy_tob.model_checks import ModelParams
from sleepy_tob.world import (
    STRATEGIES,
    DecideEvent,
    DeliverEvent,
    SendEvent,
    Trace,
    constant_schedule,
    run,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = sorted(path.stem for path in SCENARIOS.glob("*.json"))

# ---------------------------------------------------------------------------
# reference: one dict per line, encoded by json.dumps


def reference_msg_to_json(msg: VoteMsg | ProposeMsg, log_id: Callable[[Log], int]) -> dict:
    if isinstance(msg, VoteMsg):
        return {"type": "vote", "sender": msg.sender, "round": msg.round, "log": log_id(msg.log)}
    return {
        "type": "propose",
        "sender": msg.sender,
        "view": msg.view,
        "log": log_id(msg.log),
        "vrf": {"value": msg.ticket, "sender": msg.sender, "view": msg.view},
    }


def reference_record_to_json(record: GaRecord, log_id: Callable[[Log], int]) -> dict:
    return {
        "synchronous": record.synchronous,
        "byzantine": sorted(record.byzantine),
        "receivers": {
            str(q): {"m": view.m,
                     "output": sorted([log_id(log), g] for log, g in view.output.grades.items())}
            for q, view in record.receivers.items()
        },
    }


def reference_trace_lines(trace: Trace, scenario: Scenario) -> list[str]:
    log_ids: dict[Log, int] = {}
    send_ids: dict[VoteMsg | ProposeMsg, int] = {}
    sent = [e.msg for e in trace.send_events()]
    sends = 0
    lines = [
        json.dumps(
            {
                "kind": "header",
                "scenario_hash": scenario.canonical_hash(),
                "params": scenario.to_dict()["params"],
                "strategy": trace.strategy_name,
            },
            sort_keys=True,
        )
    ]

    def write(obj: dict, r: int) -> None:
        lines.append(json.dumps({**obj, "round": r}, sort_keys=True))

    def introduce(logs: Iterable[Log], r: int) -> None:
        fresh: set[Log] = set()
        for log in logs:
            while log not in log_ids and log not in fresh:
                fresh.add(log)
                log = Log(log.values[:-1])
        for log in sorted(fresh, key=lambda log: (len(log), fields_key(log))):
            log_ids[log] = len(log_ids)
            write({"kind": "log", "actor": None, "payload": {
                "id": log_ids[log],
                "parent": log_ids[Log(log.values[:-1])] if log else None,
                "value": log.values[-1]._asdict() if log else None,
            }}, r)

    for e in trace.events:
        if isinstance(e, SendEvent):
            introduce((e.msg.log,), e.round)
            send_ids.setdefault(e.msg, sends)
            obj = {"kind": "send", "id": sends, "actor": e.msg.sender,
                   "payload": {"msg": reference_msg_to_json(e.msg, log_ids.__getitem__)}}
            sends += 1
        elif isinstance(e, DeliverEvent):
            obj = {"kind": "deliver", "actor": e.receiver,
                   "payload": {"msgs": [send_ids[sent[i]] for i in e.ids]}}
        elif isinstance(e, DecideEvent):
            introduce((e.log,), e.round)
            obj = {"kind": "decide", "actor": e.pid, "payload": {"log": log_ids[e.log]}}
        else:
            assert isinstance(e, GaRecord)
            introduce((log for view in e.receivers.values()
                       for log in view.output.grades), e.round)
            obj = {"kind": "ga_record", "actor": None,
                   "payload": reference_record_to_json(e, log_ids.__getitem__)}
        write(obj, e.round)
    return lines


# ---------------------------------------------------------------------------
# inputs


def assert_same_lines(trace: Trace, scenario: Scenario) -> list[str]:
    lines = trace_lines(trace, scenario)
    assert lines == reference_trace_lines(trace, scenario)
    return lines


def assert_lines_read_back(lines: list[str]) -> None:
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True) == line


#: The header reads only the scenario's parameters and hash; traces that
#: come from no scenario file borrow this one's.
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
    if window is not None and (preset != "prop1" or len(schedule.byz(0)) >= 2):
        r_a = min(window[0], schedule.horizon - 3)
        pi = min(window[1], schedule.horizon - r_a - 2)
        schedule = replace(schedule, r_a=r_a, params=replace(schedule.params, pi=pi))
        schedule.validate()
    assert_same_lines(run(schedule, STRATEGIES[preset](), seed), HEADER_SCENARIO)


def view(grades: dict[Log, int], m: int) -> ReceiverView:
    return ReceiverView(InitialVoteSet(), frozenset(), frontier(grades), m)


def test_hand_built_trace_matches_reference():
    a = Log((GENESIS,))
    b = a.extended(Value(1, 0, 1))
    c = a.extended(Value(2, 1, 1))
    d = c.extended(Value(3, 1, 2))
    vote = VoteMsg(sender=0, round=1, log=b)
    other = VoteMsg(sender=1, round=1, log=c)
    propose = ProposeMsg(sender=1, view=1, log=c, ticket=2**64 - 1)
    shared = view({a: 1, b: 0}, 2)
    events = (
        SendEvent(0, propose),
        SendEvent(1, vote),
        SendEvent(1, other),
        DeliverEvent(1, 0, (1, 2)),
        DeliverEvent(1, 1, range(3)),
        DeliverEvent(1, 2, ()),
        GaRecord(1, True, {0: b, 1: c}, frozenset([3]), {0: shared, 1: shared, 2: shared}),
        DecideEvent(2, 0, Log()),
        GaRecord(2, False, {0: b}, frozenset([3]),
                 {0: view({b: 1}, 1), 1: view({d: 0, a: 1}, 2), 2: view({}, 0)}),
        DecideEvent(2, 1, d),
    )
    schedule = constant_schedule(4, 4, 1, ModelParams(tau=2, eta=2, pi=0, gamma=Fraction(0),
                                                      beta=Fraction(1, 3)))
    lines = assert_same_lines(Trace(schedule, "hand-built", events), HEADER_SCENARIO)
    assert_lines_read_back(lines)
    delivered = [json.loads(line)["payload"]["msgs"] for line in lines if '"deliver"' in line]
    assert delivered == [[1, 2], [0, 1, 2], []]
