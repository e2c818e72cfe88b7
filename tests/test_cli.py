import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import TraceLogs, expand, sliced_prefixes
from sleepy_tob import cli, model_checks
from sleepy_tob.cli import (
    Scenario,
    build_schedule,
    decision_latencies,
    load_scenario,
    main,
    parse_ratio,
    ratio_str,
    run_scenario,
    trace_lines,
)
from sleepy_tob.core import Log, ProposeMsg, Value, VoteMsg, is_chain
from sleepy_tob.oracle import Verdict
from sleepy_tob.world import DecideEvent, DeliverEvent, SendEvent

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

#: scenario -> (exit code, sha256[:16] of trace.jsonl, sha256[:16] of report.json)
GOLDEN = {
    "prop1_baseline": (1, "c904308cb45ad583", "3c15a622f1fea58b"),
    "prop1_expiring": (0, "cab2f8e0793a9d85", "8336d6af4f488323"),
    "split_decision_eta0": (1, "9d9d34cea17b0e47", "b58322772f586e04"),
    "split_decision_eta2": (0, "c3f58520686bc463", "1836facf6f02d65a"),
    "stall_participation_drop": (0, "854b745868daf3ff", "ccb9169d3a61bd3a"),
    "sync_faultfree": (0, "5656254b341d320f", "fda45c4855c02d40"),
}


def sha16(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name, tmp_path, monkeypatch):
    monkeypatch.delenv("SLEEPY_TOB_SEED", raising=False)
    code = main(["run", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path)])
    trace, report = sha16(tmp_path / "trace.jsonl"), sha16(tmp_path / "report.json")
    assert (code, trace, report) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_do_not_depend_on_hash_seed(name, tmp_path):
    outputs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / hash_seed
        env = {k: v for k, v in os.environ.items() if k != "SLEEPY_TOB_SEED"}
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "sleepy_tob", "run", str(SCENARIOS / f"{name}.json"),
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == GOLDEN[name][0], proc.stderr
        assert (sha16(out / "trace.jsonl"), sha16(out / "report.json")) == GOLDEN[name][1:]
        outputs.append(((out / "trace.jsonl").read_bytes(), (out / "report.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_outputs_do_not_depend_on_the_log_hash(tmp_path, monkeypatch):
    """Under a perturbed ``Log.__hash__``, ``VoteMsg.__hash__`` and
    ``ProposeMsg.__hash__`` equal logs and messages still hash equal, but
    sets of them iterate in another order.  No golden output and no default
    campaign report follows that order."""
    monkeypatch.delenv("SLEEPY_TOB_SEED", raising=False)
    logs = [Log((Value(i, 0, i),) * (i % 3)) for i in range(40)]
    msgs = [cls(i % 7, i, logs[i], *([i] if cls is ProposeMsg else []))
            for cls in (VoteMsg, ProposeMsg) for i in range(40)]
    log_order, msg_order = list(set(logs)), list(frozenset(msgs))
    reports = [run_scenario(scenario)[1] for scenario in campaign_scenarios()]
    monkeypatch.setattr(Log, "__hash__", lambda self: hash((self._hash, 7919)))
    for cls in (VoteMsg, ProposeMsg):
        monkeypatch.setattr(cls, "__hash__", lambda self: hash((tuple.__hash__(self), 7919)))
    assert list(set(logs)) != log_order
    assert list(frozenset(msgs)) != msg_order
    for name, (code, trace, report) in GOLDEN.items():
        out = tmp_path / name
        assert main(["run", str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == code
        assert (sha16(out / "trace.jsonl"), sha16(out / "report.json")) == (trace, report)
    assert [run_scenario(scenario)[1] for scenario in campaign_scenarios()] == reports


#: The runs whose trace.jsonl is read back: each shipped scenario, one run
#: under ``--seed``, so that a ticket must come from the header and not from
#: the scenario file, and the first run of a default ``campaign``.
READ_BACK = {**{name: (name, []) for name in sorted(GOLDEN)},
             "sync_faultfree-seed-3": ("sync_faultfree", ["--seed", "3"]),
             "campaign-0": ("campaign-0", [])}


@pytest.mark.parametrize("case", sorted(READ_BACK))
def test_compact_trace_loses_nothing(case, tmp_path, monkeypatch):
    """trace.jsonl alone gives back the scenario, every log, send, receive
    phase and decision of the run, and per instance its inputs and each
    receiver's initial and received votes, participation and full grade
    map, expanded from its claim's frontier through the parent ids.  A line
    whose actor is a list (the vote sends, proposal sends, decisions or
    synchronous deliveries of one round that state one fact) expands into
    one fact per member, and no two adjacent lines could have been one such
    line.  A proposal's log is rebuilt from its line's log or base, and its
    ticket from the header's seed.

    The votes are folded here, not with the package's rule: per receiver
    and sender, the newest round delivered counts if it is inside the
    expiry window, unless the sender voted two logs in that round."""
    monkeypatch.delenv("SLEEPY_TOB_SEED", raising=False)
    name, argv = READ_BACK[case]
    if name == "campaign-0":
        with pytest.MonkeyPatch.context() as mp:
            path = tmp_path / "campaign-0.json"
            path.write_text(json.dumps(default_campaign_base(mp).to_dict()))
    else:
        path = SCENARIOS / f"{name}.json"
    main(["run", str(path), "--out", str(tmp_path), *argv])
    scenario = load_scenario(path)
    if argv:
        scenario = replace(scenario, seed=int(argv[1]))
    trace, _ = run_scenario(scenario)
    header, *lines = map(json.loads, (tmp_path / "trace.jsonl").read_text().splitlines())
    assert Scenario.from_dict(header["scenario"]) == scenario
    assert Scenario.from_dict(header["scenario"]).canonical_hash() == header["scenario_hash"]
    eta, seed = header["scenario"]["params"]["eta"], header["scenario"]["params"]["seed"]
    logs = TraceLogs()
    sent, deliveries, decisions, records = [], [], [], {}
    newest = {}  # (receiver, sender) -> (newest round delivered, its votes)

    def grade_map(claim):
        """The claim's grades, by walking parent ids from its frontier."""
        grades = {}
        for i, g in [(claim["grade1"], 1), *((top, 0) for top in claim["tops"])]:
            while i is not None and i not in grades:
                grades[i] = g
                i = logs.parents[i]
        return {logs[i]: g for i, g in grades.items()}

    for obj in lines:
        kind, r, actor, payload = obj["kind"], obj["round"], obj["actor"], obj["payload"]
        if kind == "log":
            logs.read_log_line(payload)
        elif kind == "send":
            assert obj["id"] == len(sent) and type(actor) is list
            # a send line names its senders once, as its actor, and a vote's
            # round once, as the line's round; it lists the senders of one
            # run, the k-th of them sending id + k
            if payload["msg"]["type"] == "vote":
                assert set(payload["msg"]) == {"log", "type"}
                log = logs[payload["msg"]["log"]]
                sent += [(r, VoteMsg(sender=p, round=r, log=log)) for p in actor]
            else:
                sent += [(r, pm) for pm in logs.proposals(obj, seed)]
        elif kind == "deliver":
            if "msgs" in payload:
                assert type(actor) is int
                receivers, ids = [actor], payload["msgs"]
            else:
                # the receivers of one run of send ids
                assert set(payload) == {"from", "to"} and type(actor) is list
                receivers, ids = actor, list(range(payload["from"], payload["to"]))
            for q in receivers:
                deliveries.append((r, q, ids))
                for m in (sent[i][1] for i in ids):
                    if isinstance(m, VoteMsg):
                        rnd, votes = newest.get((q, m.sender), (-1, set()))
                        if m.round > rnd:
                            newest[q, m.sender] = (m.round, {m})
                        elif m.round == rnd:
                            votes.add(m)
        elif kind == "decide":
            assert type(actor) is list
            decisions += [(r, p, logs[payload["log"]]) for p in actor]
        else:
            assert kind == "ga_record"
            start = 0 if eta is None else r - eta
            views = {}
            for claim in payload["claims"]:
                grades = grade_map(claim)
                for q in claim["receivers"]:
                    assert q not in views
                    counted = [next(iter(votes)) for (receiver, _), (rnd, votes) in newest.items()
                               if receiver == q and rnd >= start and len(votes) == 1]
                    views[q] = (
                        {m for m in counted if m.round < r},
                        {m for m in counted if m.round == r},
                        claim["m"],
                        grades,
                    )
            inputs = {m.sender: m.log for rnd, m in sent if rnd == r and isinstance(m, VoteMsg)
                      and m.sender not in payload["byzantine"]}
            records[r] = (payload["synchronous"], set(payload["byzantine"]), inputs, views)

    # each line with an actor list holds a whole run: no two adjacent lines
    # state one fact, of one kind and round, with the next send id for sends
    for a, b in zip(lines, lines[1:]):
        same = [(obj["kind"], obj["round"], obj["payload"]) for obj in (a, b)]
        assert not (type(a["actor"]) is list and type(b["actor"]) is list and same[0] == same[1]
                    and (a["kind"] != "send" or b["id"] == a["id"] + len(a["actor"]))), (a, b)
    # tickets included: every proposal in the run carries the seed's ticket
    assert [m for _, m in sent] == [e.msg for e in trace.send_events()]
    assert deliveries == [(e.round, e.receiver, list(e.ids))
                          for e in trace.events if isinstance(e, DeliverEvent)]
    assert decisions == [(e.round, e.pid, e.log) for e in trace.decide_events()]
    assert records == {
        r: (record.synchronous, set(record.byzantine), record.inputs,
            {q: (set(view.initial.messages), set(view.received), view.m, expand(view.output))
             for q, view in record.receivers.items()})
        for r, record in trace.ga_records().items()
    }
    named = [m.log for _, m in sent] + [log for _, _, log in decisions] + [
        log for record in trace.ga_records().values()
        for view in record.receivers.values() for log in expand(view.output)
    ]
    assert set(logs.logs) == {prefix for log in named for prefix in sliced_prefixes(log)}
    if name == "sync_faultfree":
        # every awake process proposes in round 0 and each round 2v: one line a round
        proposing = [obj["round"] for obj in lines
                     if obj["kind"] == "send" and obj["payload"]["msg"]["type"] == "propose"]
        assert proposing == sorted({e.round for e in trace.propose_sends()})
        assert proposing == list(range(0, scenario.horizon, 2))


@pytest.mark.parametrize("n", [8, 40])
def test_synchronous_facts_take_one_line_of_fixed_shape(n):
    """In a fault-free run every receive phase is synchronous and holds
    nothing back, and every round is one cohort.  So each round's
    deliveries are one ``deliver`` line, a run of send ids held by the
    round's receivers, each round's votes one ``send`` line, each
    proposing round's proposals one ``send`` line (after round 0's genesis
    proposals, a ``base`` line) and its decisions at most one ``decide``
    line, and each ``ga_record`` line is one claim held by the round's
    awake receivers."""
    scenario = Scenario(name="faultfree", n=n, horizon=12, tau=4, eta=4, pi=0,
                        gamma=Fraction(0), beta=Fraction(1, 3), r_a=None, seed=1,
                        schedule_spec={"constant": {}})
    trace, report = run_scenario(scenario)
    assert report["exit_code"] == 0
    schedule = trace.schedule
    objs = [json.loads(line) for line in trace_lines(trace, scenario)[1:]]
    deliveries = [obj for obj in objs if obj["kind"] == "deliver"]
    records = [obj for obj in objs if obj["kind"] == "ga_record"]
    assert [obj["round"] for obj in deliveries] == list(range(schedule.horizon))
    for obj in deliveries:
        assert set(obj["payload"]) == {"from", "to"}
        assert obj["actor"] == sorted(schedule.awake_honest[obj["round"] + 1])
    votes = [obj for obj in objs
             if obj["kind"] == "send" and obj["payload"]["msg"]["type"] == "vote"]
    assert [obj["round"] for obj in votes] == list(range(1, schedule.horizon))
    assert all(obj["actor"] == list(range(n)) for obj in votes)
    proposals = [obj for obj in objs
                 if obj["kind"] == "send" and obj["payload"]["msg"]["type"] == "propose"]
    assert [obj["round"] for obj in proposals] == list(range(0, schedule.horizon, 2))
    assert all(obj["actor"] == list(range(n)) for obj in proposals)
    assert all("base" in obj["payload"]["msg"] for obj in proposals[1:])
    decided = [obj["round"] for obj in objs if obj["kind"] == "decide"]
    assert decided and len(set(decided)) == len(decided)
    assert len(records) == schedule.horizon - 1
    for obj in records:
        assert obj["payload"]["synchronous"]
        [claim] = obj["payload"]["claims"]
        assert claim["receivers"] == sorted(schedule.awake_honest[obj["round"] + 1])


def per_value_decision_latencies(trace) -> tuple[int, Fraction | None]:
    """Decided-value count and mean latency, with the first decision round
    of each value taken value by value from every decided log."""
    first_decided = {}
    for e in trace.decide_events():
        for v in e.log.values:
            first_decided.setdefault(v, e.round)
    latencies = [r - trace.first_input_round(v) for v, r in first_decided.items()
                 if trace.first_input_round(v) is not None]
    return len(latencies), Fraction(sum(latencies), len(latencies)) if latencies else None


def campaign_scenarios(seeds: int = 8):
    """The runs of ``sleepy-tob campaign`` with its default settings."""
    base = Scenario(name="campaign", n=20, horizon=20, tau=4, eta=4, pi=2,
                    gamma=Fraction(1, 10), beta=Fraction(1, 3), r_a=6, seed=0,
                    schedule_spec={"generate": {"n_byz": 4}})
    for seed in range(seeds):
        yield replace(base, seed=seed, adversary=("prop1", "split_decision")[seed % 2])


def campaign_traces(seeds: int = 8):
    """Traces of ``sleepy-tob campaign`` runs with its default settings."""
    for scenario in campaign_scenarios(seeds):
        yield run_scenario(scenario)[0]


def test_decision_latencies_match_the_per_value_scan():
    traces = {name: run_scenario(load_scenario(SCENARIOS / f"{name}.json"))[0]
              for name in sorted(GOLDEN)}
    # these two decide conflicting logs, so some walks pass logs no earlier
    # decision held before they reach a common prefix that one did
    for name in ("prop1_baseline", "split_decision_eta0"):
        assert not is_chain(e.log for e in traces[name].decide_events())
    for trace in [*traces.values(), *campaign_traces()]:
        count, mean = per_value_decision_latencies(trace)
        got = decision_latencies(trace)
        assert got["decided_values"] == count
        assert got["mean_decision_latency"] == (None if mean is None else ratio_str(mean))


def test_events_and_messages_have_their_class_shape():
    # World and the round steps build these with tuple.__new__, which does
    # not check the field count that the classes' own constructors check
    traces = [run_scenario(load_scenario(SCENARIOS / f"{name}.json"))[0] for name in GOLDEN]
    records = []
    for trace in [*traces, *campaign_traces()]:
        for event in trace.events:
            if isinstance(event, tuple):
                records.append(event)
                if isinstance(event, SendEvent):
                    records += [event.msg, *event.msg.log.values]
    assert {type(x) for x in records} == {
        SendEvent, DeliverEvent, DecideEvent, VoteMsg, ProposeMsg, Value
    }
    for x in records:
        assert len(x) == len(type(x)._fields) and type(x)(*x) == x, x


def test_decision_latencies_keep_the_first_decision_of_a_value_under_two_prefixes():
    # a value decided under one prefix and later under another keeps its first
    # round: the walk of the second log meets it in a log it has not seen
    a, b, x = (Value(id=i, proposer=0, view=1) for i in (1, 2, 3))

    class Decisions:
        def decide_events(self):
            return [DecideEvent(3, 0, Log((a, x))), DecideEvent(5, 0, Log((b, x)))]

        def first_input_round(self, v):
            return 1

    assert per_value_decision_latencies(Decisions()) == (3, Fraction(8, 3))
    assert decision_latencies(Decisions())["mean_decision_latency"] == "8/3"


def test_parse_ratio_exact():
    assert parse_ratio("1/3") == Fraction(1, 3)
    assert parse_ratio("0.05") == Fraction(1, 20)
    with pytest.raises(ValueError):
        parse_ratio(0.1)
    with pytest.raises(ValueError, match="got bool True"):
        parse_ratio(True)


class TestCmdRun:
    def test_baseline_attack_exits_nonzero_and_cites_violation(self, tmp_path, capsys):
        code = main(["run", str(SCENARIOS / "prop1_baseline.json"), "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert "safety_after" in report["failures"]
        witness = report["oracles"]["safety_after_0"]["witness"]
        assert witness["log_a"] != witness["log_b"]

    def test_expiring_attack_exits_zero(self, tmp_path):
        code = main(["run", str(SCENARIOS / "prop1_expiring.json"), "--out", str(tmp_path)])
        assert code == 0

    def test_faultfree_reports_latency(self, tmp_path, capsys):
        code = main(["run", str(SCENARIOS / "sync_faultfree.json"), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["mean_decision_latency"] is not None
        out = capsys.readouterr().out
        assert "mean latency" in out

    def test_trace_is_jsonl_with_header(self, tmp_path):
        main(["run", str(SCENARIOS / "sync_faultfree.json"), "--out", str(tmp_path)])
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert len(header["scenario_hash"]) == 64
        kinds = set()
        for line in lines[1:]:
            obj = json.loads(line)
            assert {"kind", "round", "actor", "payload"} <= set(obj)
            kinds.add(obj["kind"])
        assert {"send", "deliver", "decide", "ga_record"} <= kinds

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", str(SCENARIOS / "prop1_expiring.json"), "--out", str(a)])
        main(["run", str(SCENARIOS / "prop1_expiring.json"), "--out", str(b)])
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLEEPY_TOB_SEED", "99")
        main(["run", str(SCENARIOS / "sync_faultfree.json"), "--out", str(tmp_path)])
        header = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
        assert header["scenario"]["params"]["seed"] == 99

    @pytest.mark.parametrize(
        "argv",
        [["run", str(SCENARIOS / "sync_faultfree.json")], ["campaign", "--seeds", "1"]],
        ids=["run", "campaign"],
    )
    def test_non_integer_env_seed_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SLEEPY_TOB_SEED", "abc")
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: SLEEPY_TOB_SEED must be an integer, got 'abc'" in err

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_main_builds_no_parser_and_finds_its_command_by_name(monkeypatch, capsys):
    """``main`` parses with the parser built at import and calls the command
    its subcommand names when it runs, so a replaced ``cmd_run`` is called."""
    def no_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    calls = []
    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
    monkeypatch.setattr(cli, "cmd_run", lambda args: calls.append(args) or 7)
    monkeypatch.delenv("SLEEPY_TOB_SEED", raising=False)
    assert main(["run", "scenario.json", "--out", "elsewhere"]) == 7
    assert [(a.command, a.scenario, a.seed, a.out) for a in calls] == [
        ("run", "scenario.json", None, "elsewhere")]
    assert main(["check", str(SCENARIOS / "sync_faultfree.json")]) == 0
    assert main(["sweep-beta", "--steps", "2"]) == 0
    assert main(["campaign", "--seeds", "1"]) == 0
    assert len(calls) == 1


class TestUnknownScenarioKeys:
    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "where, key",
        [("params", "gama"), ("top", "gama"), ("params", "beta_tilde")],
        ids=["params", "top", "params-beta_tilde"],
    )
    def test_unknown_key_exits_2_naming_it(self, command, where, key, tmp_path, capsys):
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        (data["params"] if where == "params" else data)[key] = "1/2"
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert main(argv) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestUnknownAdversary:
    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "adversary, message",
        [
            ({"name": "prop2"}, "unknown adversary 'prop2'; known: none, prop1, split_decision"),
            ("prop1", "adversary must be an object like {\"name\": \"prop1\"}, got 'prop1'"),
            ({"nme": "prop1"}, "unknown adversary key 'nme'"),
            ({"name": ["prop1"]}, "unknown adversary ['prop1']"),
        ],
        ids=["unknown-name", "not-an-object", "unknown-key", "name-not-a-string"],
    )
    def test_bad_adversary_exits_2_naming_it(self, command, adversary, message, tmp_path, capsys):
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        data["adversary"] = adversary
        path = tmp_path / "adversary.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestMalformedSchedule:
    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "schedule, message",
        [
            ("constant", "schedule must be an object with exactly one of constant, explicit, "
                         "generate, got 'constant'"),
            ({"constnt": {}}, "unknown schedule kind 'constnt'; known: constant, explicit, "
                              "generate"),
            ({"constant": {}, "generate": {}}, "schedule must be an object with exactly one of "
                                               "constant, explicit, generate, got {'constant'"),
            ({"constant": 2}, "schedule 'constant' must map to an object, got 2"),
            ({"constant": {"nbyz": 2}}, "unknown schedule 'constant' key 'nbyz'"),
            ({"constant": {"n_byz": "2"}},
             "schedule 'constant' n_byz must be a non-negative integer, got '2'"),
            ({"generate": {"n_byz": -1}},
             "schedule 'generate' n_byz must be a non-negative integer, got -1"),
            ({"explicit": {"awake_honest": [1] * 15, "byzantine": [[]] * 15}},
             "schedule 'explicit' awake_honest round 0 must be a list of process ids, got 1"),
            ({"explicit": {"awake_honest": [[0]] * 15, "byzantine": [[], [], ["7"]] + [[]] * 12}},
             "schedule 'explicit' byzantine round 2 must be a list of process ids, got ['7']"),
            ({"explicit": {"awake_honest": [[0]] * 15}},
             "schedule 'explicit' byzantine must be a list of rounds, got None"),
        ],
        ids=["not-an-object", "unknown-kind", "two-kinds", "kind-not-an-object", "unknown-key",
             "n_byz-string", "n_byz-negative", "explicit-entry-not-a-list",
             "explicit-id-not-an-int", "explicit-missing-list"],
    )
    def test_bad_schedule_exits_2_naming_it(self, command, schedule, message, tmp_path, capsys):
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        data["schedule"] = schedule
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def run_or_check(command, data, tmp_path):
    """Exit code of ``command`` (run or check) on ``data`` written to a file."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    return main(argv)


class TestBadScenarioObjects:
    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"oracles": "x"}, "oracles must map to an object, got 'x'"),
            ({"oracles": {"livenes_window": 3}}, "unknown oracles key 'livenes_window'"),
            ({"oracles": {"safety": False}}, "unknown oracles key 'safety'"),
            ({"oracles": {"liveness_window": -3}},
             "oracles liveness_window must be a non-negative integer, got -3"),
            ({"params": "x"}, "params must map to an object, got 'x'"),
            ({"params": {"horizon": 14}}, "params n must be an integer, got None"),
            ({"params": {"n": 8.9, "horizon": 14}}, "params n must be an integer, got 8.9"),
            ({"params": {"n": 8, "horizon": 14, "eta": True}},
             "params eta must be an integer, got True"),
            ({"name": 5}, "name must be a string, got 5"),
            ({"params": {"n": 8, "horizon": 14, "beta": True}},
             "ratios must be exact strings, got bool True"),
        ],
        ids=["oracles-not-an-object", "oracles-typo", "oracles-toggle",
             "negative-liveness-window", "params-not-an-object", "params-missing-n",
             "params-float-n", "params-bool-eta", "name-not-a-string", "params-bool-beta"],
    )
    def test_exits_2_naming_the_problem(self, command, changes, message, tmp_path, capsys):
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        assert run_or_check(command, {**data, **changes}, tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_scenario_not_an_object_exits_2(self, command, tmp_path, capsys):
        assert run_or_check(command, [1, 2], tmp_path) == 2
        assert "scenario must map to an object, got [1, 2]" in capsys.readouterr().err

    def test_liveness_window_zero_is_accepted(self, tmp_path):
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        assert run_or_check("check", {**data, "oracles": {"liveness_window": 0}}, tmp_path) == 0


@pytest.mark.parametrize("kind", ["constant", "explicit", "generate"])
def test_every_schedule_kind_carries_the_scenario_params(kind):
    # eta=None means never expire for every kind; generate used to run with eta=tau
    scenario = load_scenario(SCENARIOS / "prop1_expiring.json")
    spec = {
        "constant": {"n_byz": 2},
        "explicit": {"awake_honest": [list(range(8))] * 17, "byzantine": [[8, 9]] * 17},
        "generate": {"n_byz": 2},
    }[kind]
    scenario = replace(scenario, eta=None, schedule_spec={kind: spec})
    schedule = build_schedule(scenario)
    assert schedule.params == scenario.model_params()
    assert schedule.params.eta is None
    assert (schedule.r_a, schedule.pi) == (4, 2)


def test_readme_scenario_examples_load():
    """Every JSON block in the README is a scenario the loader accepts, and
    the README names every key the loader knows."""
    from sleepy_tob.cli import ORACLE_KEYS, PARAMS, SCHEDULE_KEYS

    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        Scenario.from_dict(json.loads(block))
    keys = set(PARAMS) | ORACLE_KEYS | set(SCHEDULE_KEYS).union(*SCHEDULE_KEYS.values())
    for key in sorted(keys):
        assert f"`{key}`" in readme, key


def test_readme_key_tables_list_exactly_the_loader_keys():
    """The README's "Scenario files" table lists, for each object it names
    below, exactly the keys the loader accepts."""
    from sleepy_tob.cli import ORACLE_KEYS, PARAMS, SCENARIO_KEYS, SCHEDULE_KEYS

    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Scenario files\n", 1)[1].split("\n### ", 1)[0]
    rows = dict(re.findall(r"^\| (.+?) \| (.+) \|$", section, re.M))
    want = {
        "top level": SCENARIO_KEYS,
        "`params`": set(PARAMS),
        "`schedule`": set(SCHEDULE_KEYS),
        "`oracles`": ORACLE_KEYS,
        **{f"`{kind}`": keys for kind, keys in SCHEDULE_KEYS.items()},
    }
    listed = {obj: set(re.findall(r"`(\w+)`", rows.get(obj, ""))) for obj in want}
    assert listed == want


def test_import_leaves_decimal_precision_alone():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    code = (
        "import decimal; before = decimal.getcontext().prec; "
        "import sleepy_tob.cli; print(before, decimal.getcontext().prec)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


class TestCmdCheck:
    def test_gamma_at_least_beta_domain_error(self, tmp_path, capsys):
        bad = {
            "name": "bad",
            "params": {"n": 4, "horizon": 6, "tau": 2, "eta": 2, "pi": 0,
                       "gamma": "1/2", "beta": "1/3", "r_a": None, "seed": 0},
            "schedule": {"constant": {"n_byz": 0}},
            "adversary": {"name": "none"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["check", str(path)]) == 2
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_domain_error_has_one_label_in_run_and_check(self, command, tmp_path, capsys):
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        data["params"]["gamma"] = "1/2"
        assert run_or_check(command, data, tmp_path) == 2
        assert capsys.readouterr().err.startswith("domain error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("r_a", [-1, -3])
    def test_negative_r_a_is_a_schedule_error(self, command, r_a, tmp_path, capsys):
        # a negative index would read the awake set from the end of the schedule
        data = json.loads((SCENARIOS / "prop1_expiring.json").read_text())
        data["params"]["r_a"] = r_a
        assert run_or_check(command, data, tmp_path) == 2
        assert capsys.readouterr().err == (
            f"schedule error: the last synchronous round r_a must be >= 0, got {r_a}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("name", ["sync_faultfree", "stall_participation_drop"])
    def test_r_a_without_a_window_is_a_schedule_error(self, command, name, tmp_path, capsys):
        # r_a is null exactly when pi is 0; a given r_a used to be dropped silently
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        data["params"]["r_a"] = 1
        assert run_or_check(command, data, tmp_path) == 2
        assert capsys.readouterr().err == (
            "schedule error: a window at r_a must have positive length\n"
        )
        assert not (tmp_path / "out").exists()

    def test_schema_error_is_not_a_domain_error(self, tmp_path, capsys):
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        assert run_or_check("check", {**data, "oracles": {"livenes_window": 3}}, tmp_path) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot load scenario: unknown oracles key 'livenes_window'\n"

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"n": 0}, "need at least 1 process, got n = 0"),
            ({"n": 0, "kind": "generate"}, "need at least 1 process, got n = 0"),
            ({"n": 3, "n_byz": 3}, "no well-behaved process is awake in any round"),
        ],
        ids=["no-process", "no-process-generate", "nobody-awake"],
    )
    def test_schedule_without_a_process_exits_2(self, command, changes, message, tmp_path,
                                                 capsys):
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        data["params"]["n"] = changes["n"]
        data["schedule"] = {changes.get("kind", "constant"): {"n_byz": changes.get("n_byz", 0)}}
        assert run_or_check(command, data, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.endswith(message + "\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("override", ["-1", "0", "5"])
    def test_beta_tilde_outside_unit_interval_exits_2(self, command, override, tmp_path,
                                                      capsys):
        # out of (0, 1] it would put every run out of model (no gating) or
        # any Byzantine share in model; the ratio is derived from beta and
        # gamma, so the key is refused whatever its value
        data = json.loads((SCENARIOS / "prop1_expiring.json").read_text())
        data["params"]["beta_tilde"] = override
        assert run_or_check(command, data, tmp_path) == 2
        assert capsys.readouterr().err == (
            "error: cannot load scenario: unknown params key 'beta_tilde'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_impossible_byzantine_count_fails_at_once(self, tmp_path, capsys, monkeypatch):
        # 7 of 8 Byzantine break the failure ratio 1/3 in every round, so no
        # schedule is drawn and checked
        checked = []
        monkeypatch.setattr(model_checks, "check_all", checked.append)
        data = json.loads((SCENARIOS / "sync_faultfree.json").read_text())
        data["schedule"] = {"generate": {"n_byz": 7}}
        assert run_or_check("run", data, tmp_path) == 2
        assert capsys.readouterr().err == (
            "schedule error: no schedule satisfying the model constraints: 7 Byzantine of 8 "
            "processes break the failure ratio 1/3 even with every process awake\n"
        )
        assert checked == []
        assert not (tmp_path / "out").exists()

    def test_valid_scenario_all_pass(self, capsys):
        assert main(["check", str(SCENARIOS / "sync_faultfree.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"]

    def test_tau_zero_churn_vacuous(self, tmp_path, capsys):
        scenario = {
            "name": "tau0",
            "params": {"n": 6, "horizon": 6, "tau": 0, "eta": 0, "pi": 0,
                       "gamma": "0", "beta": "1/3", "r_a": None, "seed": 0},
            "schedule": {"constant": {"n_byz": 0}},
            "adversary": {"name": "none"},
        }
        path = tmp_path / "tau0.json"
        path.write_text(json.dumps(scenario))
        assert main(["check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["churn"]["vacuous_rounds"] == list(range(6))

    def test_out_of_model_schedule_flagged(self, capsys):
        assert main(["check", str(SCENARIOS / "stall_participation_drop.json")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["churn"]["passed"]

    def test_structurally_invalid_explicit_schedule_exits_2(self, tmp_path, capsys):
        bad = {
            "name": "overlap",
            "params": {"n": 4, "horizon": 2, "tau": 0, "eta": 0, "pi": 0,
                       "gamma": "0", "beta": "1/3", "r_a": None, "seed": 0},
            "schedule": {"explicit": {
                "awake_honest": [[0, 1]] * 3,
                "byzantine": [[1]] * 3,
            }},
            "adversary": {"name": "none"},
        }
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(bad))
        assert main(["check", str(path)]) == 2
        assert "schedule error" in capsys.readouterr().err


class TestCmdSweepBeta:
    def test_two_steps_two_rows(self, capsys):
        assert main(["sweep-beta", "--beta", "1/3", "--steps", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "gamma,beta_tilde"
        assert len(lines) == 3

    def test_endpoint_and_spot_values(self, capsys):
        main(["sweep-beta", "--beta", "1/3", "--steps", "20"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        table = dict(line.split(",") for line in lines)
        assert table["0.000000000000"] == "0.333333333333"
        assert table["0.050000000000"].startswith("0.3090909090")

    def test_csv_file_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["sweep-beta", "--steps", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("gamma,beta_tilde\n")

    def test_too_few_steps(self, capsys):
        assert main(["sweep-beta", "--steps", "1"]) == 2

    @pytest.mark.parametrize(
        "beta, message",
        [("abc", "error: --beta: not an exact ratio: 'abc'"),
         ("2", "error: --beta: beta must be in (0, 1], got 2")],
    )
    def test_bad_beta_exits_2(self, beta, message, capsys):
        assert main(["sweep-beta", "--beta", beta, "--steps", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]


class TestCmdCampaign:
    def test_small_faultfree_campaign_all_pass(self, capsys):
        code = main([
            "campaign", "--seeds", "3", "--seed", "1", "--n", "12", "--n-byz", "0",
            "--horizon", "16", "--tau", "3", "--eta", "3", "--pi", "0",
            "--gamma", "1/10", "--strategies", "none",
        ])
        assert code == 0
        aggregate = json.loads(capsys.readouterr().out)
        assert aggregate["counts"]["runs"] == 3
        assert aggregate["counts"]["oracle_pass"] == 3
        assert aggregate["counterexamples"] == []

    def test_r_a_is_ignored_without_a_window(self, capsys):
        code = main(["campaign", "--seeds", "2", "--n", "8", "--horizon", "8", "--pi", "0",
                     "--r-a", "3", "--strategies", "none"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["counts"]["oracle_pass"] == 2

    def test_adversarial_campaign_with_window(self, capsys):
        code = main([
            "campaign", "--seeds", "4", "--seed", "0", "--n", "20", "--n-byz", "4",
            "--horizon", "20", "--tau", "4", "--eta", "4", "--pi", "2", "--r-a", "6",
            "--gamma", "1/10", "--strategies", "prop1,split_decision",
        ])
        assert code == 0
        aggregate = json.loads(capsys.readouterr().out)
        assert aggregate["counts"]["in_model"] == 4
        assert aggregate["counts"]["oracle_pass"] == 4


    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--n", "5", "--n-byz", "4"], "infeasible: no schedule satisfying"),
            (["--n", "3", "--strategies", "prop1"], "error: ValueError: the suppression"),
        ],
        ids=["infeasible", "error"],
    )
    def test_no_completed_run_exits_2(self, argv, reason, capsys):
        assert main(["campaign", "--seeds", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: no campaign run completed (")
        assert reason in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "0"], "need at least 1 process, got n = 0"),
            (["--n", "-1"], "need at least 1 process, got n = -1"),
            (["--horizon", "0"], "horizon must be at least 1 round"),
            (["--r-a", "30"], "window must end before the final round"),
        ],
        ids=["no-process", "negative-n", "no-horizon", "window-past-horizon"],
    )
    def test_schedule_error_ends_the_campaign(self, argv, message, capsys, monkeypatch):
        """A schedule error does not depend on the seed, so the first run
        that raises one ends the campaign, labelled as ``run`` labels it."""
        runs = []

        def counted(scenario):
            runs.append(scenario.seed)
            return run_scenario(scenario)

        monkeypatch.delenv("SLEEPY_TOB_SEED", raising=False)
        monkeypatch.setattr(cli, "run_scenario", counted)
        assert main(["campaign", "--seeds", "5", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"schedule error: {message}"]
        assert runs == [0]

    def test_impossible_byzantine_count_names_the_reason(self, capsys):
        assert main(["campaign", "--seeds", "2", "--n-byz", "19"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: no campaign run completed (infeasible: no schedule satisfying the model "
            "constraints: 19 Byzantine of 20 processes break the failure ratio 7/25 even with "
            "every process awake)"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--gamma", "abc"], "error: not an exact ratio: 'abc'"),
            (["--gamma", "1/2"], "error: gamma must be < beta (gamma=1/2, beta=1/3)"),
            (["--eta", "-1"], "error: tau, eta, and pi must be nonnegative"),
            (["--n-byz", "-1"], "error: schedule 'generate' n_byz must be a non-negative "
                                "integer, got -1"),
            (["--seeds", "0"], "error: --seeds must be at least 1, got 0"),
            (["--strategies", "prop1,bogus"],
             "error: unknown adversary 'bogus'; known: none, prop1, split_decision"),
        ],
        ids=["gamma-not-a-ratio", "gamma-above-beta", "negative-eta", "negative-n-byz",
             "no-seeds", "unknown-strategy"],
    )
    def test_bad_flags_exit_2_with_one_line(self, argv, message, capsys):
        assert main(["campaign", "--seeds", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_failed_runs_counted_next_to_completed_ones(self, capsys):
        # prop1 needs two Byzantine processes and n=3 gives it one, so every
        # other run raises; the split_decision runs complete
        code = main(
            ["campaign", "--seeds", "4", "--n", "3", "--strategies", "prop1,split_decision"]
        )
        assert code == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts["runs"] == 4
        assert counts["error"] == 2
        assert counts["infeasible"] == 0
        assert counts["oracle_pass"] + counts["out_of_model_failures"] == 2


class TestUnwritableOut:
    """An ``--out`` that cannot be written is one error line and exit 2."""

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing-file", "under-a-file"])
    def test_run(self, out, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        path = tmp_path / out
        assert main(["run", str(SCENARIOS / "sync_faultfree.json"), "--out", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: "), err

    def test_campaign(self, tmp_path, capsys):
        path = tmp_path / "missing" / "campaign.json"
        argv = ["campaign", "--seeds", "1", "--n", "8", "--horizon", "8", "--pi", "0",
                "--strategies", "none", "--out", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: cannot write {path}: No such file or directory"]

    def test_sweep_beta(self, tmp_path, capsys):
        path = tmp_path / "missing" / "curve.csv"
        assert main(["sweep-beta", "--steps", "4", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: cannot write {path}: No such file or directory"]


class TestAggregation:
    def _report(self, *, in_model, failures, latency="3"):
        return {
            "in_model": in_model,
            "failures": failures,
            "scenario": {"name": "x"},
            "summary": {"mean_decision_latency": latency},
        }

    def test_in_model_failure_becomes_counterexample(self):
        from sleepy_tob.cli import aggregate_runs

        agg = aggregate_runs(
            [
                self._report(in_model=True, failures=[]),
                self._report(in_model=True, failures=["safety_after"]),
            ]
        )
        assert agg["counts"]["oracle_pass"] == 1
        assert agg["counterexamples"] == [{"name": "x"}]
        assert agg["counts"]["out_of_model_failures"] == 0

    def test_out_of_model_failure_only_flagged(self):
        from sleepy_tob.cli import aggregate_runs

        agg = aggregate_runs(
            [self._report(in_model=False, failures=["safety_after"])]
        )
        assert agg["counterexamples"] == []
        assert agg["counts"]["out_of_model_failures"] == 1


def default_campaign_base(monkeypatch) -> Scenario:
    """The first run of ``sleepy-tob campaign`` with every option left at
    its default: the campaign's base scenario with its seed and adversary."""
    seen = []

    def catch(scenario: Scenario):
        seen.append(scenario)
        raise RuntimeError("not run")

    monkeypatch.delenv("SLEEPY_TOB_SEED", raising=False)
    monkeypatch.setattr(cli, "run_scenario", catch)
    assert main(["campaign", "--seeds", "1"]) == 2  # its one run raised
    [scenario] = seen
    return scenario


#: A scenario file holding only the required parameters.
MINIMAL_SCENARIO = {"params": {"n": 4, "horizon": 6}}


class TestScenarioRoundTrip:
    def test_dict_round_trip_and_hash_stability(self, monkeypatch):
        """The six shipped scenarios write back the files they came from, and
        they, the default campaign base and a file holding only ``n`` and
        ``horizon`` read back to equal scenarios with equal hashes."""
        files = [json.loads((SCENARIOS / f"{name}.json").read_text()) for name in sorted(GOLDEN)]
        shipped = [Scenario.from_dict(data) for data in files]
        assert [scenario.to_dict() for scenario in shipped] == files
        campaign = default_campaign_base(monkeypatch)
        assert campaign.to_dict()["params"] == {
            "n": 20, "horizon": 20, "tau": 4, "eta": 4, "pi": 2, "gamma": "1/10",
            "beta": "1/3", "r_a": 6, "seed": 0,
        }
        for scenario in (*shipped, campaign, Scenario.from_dict(MINIMAL_SCENARIO)):
            again = Scenario.from_dict(scenario.to_dict())
            assert again == scenario
            assert again.canonical_hash() == scenario.canonical_hash()

    def test_params_left_out_get_their_defaults(self):
        scenario = Scenario.from_dict(MINIMAL_SCENARIO)
        filled = {"n": 4, "horizon": 6, "tau": 0, "eta": None, "pi": 0, "gamma": "0",
                  "beta": "1/3", "r_a": None, "seed": 0}
        assert scenario.to_dict()["params"] == filled
        assert (scenario.tau, scenario.eta, scenario.pi, scenario.gamma, scenario.beta,
                scenario.r_a, scenario.seed) == (0, None, 0, 0, Fraction(1, 3), None, 0)
        spelled_out = Scenario.from_dict({"params": filled})
        assert spelled_out.canonical_hash() == scenario.canonical_hash()
        assert scenario.canonical_hash()[:16] == "b10b304224d71360"

    def test_only_parameters_defaulting_to_null_may_be_null(self):
        """``eta`` and ``r_a`` may be null; ``n`` and ``horizon``, which a
        file must give, and ``tau`` may not, and leaving ``n`` out reads as
        a null ``n``."""
        for key in ("eta", "r_a"):
            params = {**MINIMAL_SCENARIO["params"], key: None}
            assert getattr(Scenario.from_dict({"params": params}), key) is None
        for key in ("n", "horizon", "tau"):
            params = {**MINIMAL_SCENARIO["params"], key: None}
            with pytest.raises(cli.ScenarioError) as err:
                Scenario.from_dict({"params": params})
            assert str(err.value) == f"params {key} must be an integer, got None"
        with pytest.raises(cli.ScenarioError) as err:
            Scenario.from_dict({"params": {"horizon": 6}})
        assert str(err.value) == "params n must be an integer, got None"

    def test_run_scenario_report_replays(self):
        scenario = load_scenario(SCENARIOS / "split_decision_eta2.json")
        t1, r1 = run_scenario(scenario)
        t2, r2 = run_scenario(scenario)
        assert trace_lines(t1, scenario) == trace_lines(t2, scenario)
        assert r1 == r2


def gate_case(name: str, schedule: dict | None = None) -> dict:
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    return data if schedule is None else {**data, "schedule": schedule}


#: One run per gating rule and outcome: the scenario, each property's
#: reported ``gating`` (``None``: the property states no rule) and the exit
#: code.
GATE_CASES = {
    "window_in_model": (
        gate_case("prop1_expiring"),
        {"safety_after_0": None, "ga_properties": None, "async_resilience": True,
         "healing": True}, 0),
    "window_out_of_model": (
        gate_case("prop1_baseline"),
        {"safety_after_0": None, "ga_properties": None, "async_resilience": False,
         "healing": True}, 1),
    # gamma 0 forbids any drop-off, so one process asleep from round 10 on
    # breaks churn, the window's run is out of model and healing does not gate
    "window_broken_churn": (
        gate_case("prop1_expiring", {"explicit": {
            "awake_honest": [list(range(8))] * 10 + [list(range(7))] * 7,
            "byzantine": [[8, 9]] * 17}}),
        {"safety_after_0": None, "ga_properties": None, "async_resilience": False,
         "healing": False}, 0),
    "no_window_fault_free": (
        gate_case("sync_faultfree"),
        {"safety_after_0": None, "ga_properties": None, "liveness_after_0": True}, 0),
    "no_window_byzantine_at_horizon": (
        gate_case("sync_faultfree", {"constant": {"n_byz": 2}}),
        {"safety_after_0": None, "ga_properties": None, "liveness_after_0": False}, 0),
    "no_window_broken_churn": (
        gate_case("stall_participation_drop"),
        {"safety_after_0": None, "ga_properties": None, "liveness_after_0": False}, 0),
}


class TestGateRules:
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_each_property_reports_its_gating_rule(self, case):
        data, gating, exit_code = GATE_CASES[case]
        _, report = run_scenario(Scenario.from_dict(data))
        assert {key: rep.get("gating") for key, rep in report["oracles"].items()} == gating
        assert "gating" not in report["oracles"]["safety_after_0"]
        assert "gating" not in report["oracles"]["ga_properties"]
        assert report["exit_code"] == exit_code

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_a_failure_gates_exactly_when_its_rule_holds(self, case, monkeypatch):
        """Every gated check is made to fail: the exit code is 1 and the
        failures list the properties whose rule holds, in report order."""
        for name in ("check_safety_after", "check_async_resilience", "check_healing",
                     "check_liveness_after"):
            check = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, check=check, **k: replace(
                check(*a, **k), verdict=Verdict.FAIL))
        data, gating, _ = GATE_CASES[case]
        _, report = run_scenario(Scenario.from_dict(data))
        assert report["failures"] == [
            report["oracles"][key]["name"] for key, rule in gating.items()
            if key != "ga_properties" and rule is not False
        ]
        assert report["exit_code"] == 1


def long_horizon_scenario(seed: int) -> Scenario:
    """A fault-free n20 H32 run, the size of perfbench's long_horizon runs."""
    return Scenario(name="long-horizon", n=20, horizon=32, tau=4, eta=4, pi=0,
                    gamma=Fraction(0), beta=Fraction(1, 3), r_a=None, seed=seed,
                    schedule_spec={"constant": {"n_byz": 0}})


def infeasible_run() -> None:
    scenario = replace(next(campaign_scenarios(1)), schedule_spec={"generate": {"n_byz": 19}})
    with pytest.raises(cli.InfeasibleScheduleError):
        run_scenario(scenario)


#: Each entry point that may pause the collector, given an output directory:
#: whether it simulates a run, and what it returns.
COLLECTOR_CASES = {
    "run": (True, 0, lambda out: main(["run", str(SCENARIOS / "sync_faultfree.json"),
                                       "--out", str(out)])),
    "run-missing-scenario": (False, 2, lambda out: main(["run", str(out / "missing.json")])),
    "check": (False, 0, lambda out: main(["check", str(SCENARIOS / "sync_faultfree.json")])),
    "sweep-beta": (False, 0, lambda out: main(["sweep-beta", "--steps", "2"])),
    "campaign": (True, 0, lambda out: main(["campaign", "--seeds", "2", "--n", "8",
                                            "--horizon", "8", "--pi", "0"])),
    "campaign-every-run-raises": (False, 2, lambda out: main(["campaign", "--seeds", "2",
                                                              "--r-a", "100"])),
    "run_scenario": (True, 0, lambda out: run_scenario(long_horizon_scenario(0))[1]["exit_code"]),
    "run_scenario-raises": (False, None, lambda out: infeasible_run()),
}


class TestPausedCollector:
    def test_a_judged_run_builds_no_reference_cycles(self):
        """With the collector paused, ``run_scenario`` and ``trace_lines`` on
        the shipped scenarios and eight default campaign runs leave nothing
        that only the collector could free, so a paused run holds no memory
        past its last reference."""
        scenarios = [*(load_scenario(SCENARIOS / f"{name}.json") for name in sorted(GOLDEN)),
                     *campaign_scenarios()]
        enabled, flags, garbage = gc.isenabled(), gc.get_debug(), gc.garbage[:]
        gc.collect()
        gc.disable()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for scenario in scenarios:
                trace_lines(run_scenario(scenario)[0], scenario)
            found = gc.collect()
            assert (found, [type(obj).__name__ for obj in gc.garbage[:10]]) == (0, [])
        finally:
            gc.set_debug(flags)
            gc.garbage[:] = garbage
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", list(COLLECTOR_CASES))
    def test_the_callers_collector_state_is_restored(self, case, enabled, tmp_path,
                                                     monkeypatch, capsys):
        """Every command, ``run_scenario`` and each way they fail leave the
        collector as the caller had it, and every command's body and every
        simulated run runs with it paused."""
        simulates, code, call = COLLECTOR_CASES[case]
        seen, bodies = [], []

        def run(*args):
            seen.append(gc.isenabled())
            return world_run(*args)

        def body(command):
            def paused(args):
                bodies.append(gc.isenabled())
                return command(args)
            return paused

        world_run = cli.run
        monkeypatch.setattr(cli, "run", run)
        for name in ("cmd_run", "cmd_check", "cmd_sweep_beta", "cmd_campaign"):
            monkeypatch.setattr(cli, name, body(getattr(cli, name)))
        monkeypatch.delenv("SLEEPY_TOB_SEED", raising=False)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert call(tmp_path) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert set(seen) == ({False} if simulates else set())
        # every command's body runs paused; run_scenario is called directly
        assert bodies == ([] if case.startswith("run_scenario") else [False])

    def test_no_collection_starts_inside_a_judged_run(self):
        """Over 20 long_horizon-sized runs, each started with the young
        generation empty, the collector never starts while a
        ``run_scenario`` frame is on the stack: not during the run, and not
        on the way out, where re-enabling it comes after the last
        allocation."""
        code = cli.run_scenario.__code__
        starts = 0

        def hook(phase: str, info: dict) -> None:
            nonlocal starts
            frame = sys._getframe()
            while phase == "start" and frame is not None:
                if frame.f_code is code:
                    starts += 1
                    break
                frame = frame.f_back

        enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(hook)
        try:
            for seed in range(20):
                gc.collect()
                run_scenario(long_horizon_scenario(seed))
        finally:
            gc.callbacks.remove(hook)
            if not enabled:
                gc.disable()
        assert starts == 0
