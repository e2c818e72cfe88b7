"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import expand, random_bounded_schedule, run_instance, sends
from sleepy_tob.cli import decimal_str, load_scenario, run_scenario, trace_lines
from sleepy_tob.core import Log, Value, VoteMsg, conflicts
from sleepy_tob.ga import InitialVoteSet
from sleepy_tob.model_checks import (
    ModelParams,
    beta_tilde,
    check_all,
    check_churn,
    check_failure_ratio,
    check_tau_sleepiness,
)
from sleepy_tob.oracle import (
    Verdict,
    check_async_resilience,
    check_ga_properties,
    check_healing,
    naive_merged_votes,
    naive_record_outputs,
)
from sleepy_tob.world import (
    constant_schedule,
    generate_schedule,
    null_strategy,
    run,
    strategy_prop1,
    strategy_split_decision,
)

THIRD = Fraction(1, 3)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def announce(k: int, detail: str) -> None:
    print(f"\nCRITERION {k}: PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. reduced failure-ratio curve


def test_criterion_1_beta_tilde_curve():
    t0 = time.perf_counter()
    assert beta_tilde(THIRD, Fraction(0)) == THIRD
    assert beta_tilde(THIRD, THIRD) == 0
    eps = Fraction(1, 10**12)
    assert beta_tilde(THIRD, THIRD - eps) < Fraction(1, 10**10)
    for gamma in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        independent = Fraction(1 - 3 * gamma, 3 - 5 * gamma)
        ours = beta_tilde(THIRD, gamma)
        assert ours == independent
        assert decimal_str(ours, 10) == decimal_str(independent, 10)
    # sweep grid endpoints at 1000 points
    rows = [
        (Fraction(k, 3000), beta_tilde(THIRD, Fraction(k, 3000))) for k in range(1000)
    ]
    assert rows[0][1] == THIRD
    assert all(a[1] > b[1] for a, b in zip(rows, rows[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"curve exact at {len(rows)} grid points in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. suppression attack on the plain protocol


def test_criterion_2_agreement_violation_without_expiration():
    t0 = time.perf_counter()
    scenario = load_scenario(SCENARIOS / "prop1_baseline.json")
    trace, report = run_scenario(scenario)
    assert report["exit_code"] == 1
    assert "safety_after" in report["failures"]
    witness = report["oracles"]["safety_after_0"]["witness"]
    assert witness["log_a"] != witness["log_b"]
    decides = trace.decide_events()
    assert any(conflicts(a.log, b.log) for a in decides for b in decides)
    # deterministic: the same scenario reproduces the identical report
    _, report2 = run_scenario(scenario)
    assert report2 == report
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(2, f"agreement violation witnessed ({witness['log_a']} vs {witness['log_b']}) in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 3 + 4. asynchrony resilience and healing over a seeded battery


@pytest.fixture(scope="module")
def window_battery():
    t0 = time.perf_counter()
    outcomes = []
    for i in range(100):
        r_a = 6 if i % 2 == 0 else 7
        seed = 1000 + i
        sched = generate_schedule(
            n=20, horizon=20,
            params=ModelParams(tau=4, eta=4, pi=2, gamma=Fraction(1, 10), beta=THIRD),
            r_a=r_a, seed=seed, n_byz=4,
        )
        model_ok = check_all(sched).all_pass
        for make in (strategy_prop1, strategy_split_decision):
            trace = run(sched, make(), seed=seed)
            outcomes.append(
                {
                    "seed": seed,
                    "r_a": r_a,
                    "strategy": trace.strategy_name,
                    "model_ok": model_ok,
                    "resilience": check_async_resilience(trace, r_a, 2).verdict,
                    "healing": check_healing(trace, r_a + 2, liveness_window=8).verdict,
                }
            )
    return outcomes, time.perf_counter() - t0


def test_criterion_3_asynchrony_resilience(window_battery):
    outcomes, elapsed = window_battery
    assert len(outcomes) >= 200
    assert all(o["model_ok"] for o in outcomes)
    bad = [o for o in outcomes if o["resilience"] is not Verdict.PASS]
    assert not bad, f"conflicting decisions in {bad[:3]}"
    assert {o["strategy"] for o in outcomes} == {"prop1", "split_decision"}
    assert elapsed < 60.0
    announce(3, f"{len(outcomes)} adversarial runs, 0 conflicting decisions, {elapsed:.1f}s")


def test_criterion_4_healing(window_battery):
    outcomes, _ = window_battery
    bad = [o for o in outcomes if o["healing"] is not Verdict.PASS]
    assert not bad, f"healing failed in {bad[:3]}"
    # the plain protocol of criterion 2 also heals despite losing resilience
    scenario = load_scenario(SCENARIOS / "prop1_baseline.json")
    trace, report = run_scenario(scenario)
    assert report["oracles"]["async_resilience"]["verdict"] == "fail"
    assert check_healing(trace, 6, liveness_window=8).verdict is Verdict.PASS
    announce(4, f"healing after the first full view in {len(outcomes)} runs + plain-protocol baseline")


# ---------------------------------------------------------------------------
# 5. randomized agreement-instance property suite


def _random_sync_instance(rng: random.Random, *, with_initial: bool, plant: bool):
    vals = [Value(id=i, proposer=99, view=0) for i in range(5)]

    def rand_log(maxlen: int, base: tuple = ()) -> Log:
        k = rng.randint(0, maxlen)
        return Log(base + tuple(vals[rng.randrange(5)] for _ in range(k)))

    round_no = 6
    h = rng.randint(4, 9)
    base = rand_log(2)
    inputs = {}
    for s in range(h):
        if rng.random() < 0.75:
            inputs[s] = rand_log(2, base.values)
        else:
            inputs[s] = rand_log(3)
    budget = (h - 1) // 2  # keeps honest senders above 2/3 of all influencers
    n_byz = rng.randint(0, budget)
    byz_ids = frozenset(range(100, 100 + n_byz))
    byz_msgs = []
    for b in sorted(byz_ids):
        byz_msgs.append(VoteMsg(b, round_no, rand_log(3)))
        if rng.random() < 0.3:
            byz_msgs.append(VoteMsg(b, round_no, rand_log(3)))
    extra = rng.randint(0, budget - n_byz)
    sleepers = list(range(200, 200 + extra))
    receivers = sorted(inputs)
    initial_sets = {}
    if with_initial:
        pool_votes = {
            p: VoteMsg(p, round_no - 1 - rng.randint(0, 2), rand_log(2, base.values))
            for p in sleepers
        }
        for s in receivers:
            if rng.random() < 0.5:
                pool_votes[s] = VoteMsg(s, round_no - 1, rand_log(2, base.values))
        if plant:
            # full mutual coverage: every receiver carries a vote from every
            # sender and sleeper, all extending the shared base
            pool_votes = {
                p: VoteMsg(p, round_no - 1, rand_log(1, base.values))
                for p in list(inputs) + sleepers
            }
            for s in inputs:
                inputs[s] = rand_log(1, base.values)
            initial_sets = {
                q: InitialVoteSet(messages=frozenset(pool_votes.values()))
                for q in receivers
            }
        else:
            for q in receivers:
                chosen = [v for v in pool_votes.values() if rng.random() < 0.6]
                initial_sets[q] = InitialVoteSet(messages=frozenset(chosen))
    return run_instance(
        round=round_no,
        inputs=inputs,
        byz_msgs=byz_msgs,
        initial_sets=initial_sets,
        receivers=receivers,
        byzantine=byz_ids,
    )


def test_criterion_5_ga_property_suite():
    rng = random.Random(424242)
    total = 10_000
    core_checked = 0
    clique_applicable = 0
    naive_checked = 0
    core_names = (
        "graded_consistency",
        "integrity",
        "validity",
        "uniqueness",
        "bounded_divergence",
    )
    for i in range(total):
        with_initial = i % 5 != 0  # every fifth instance runs with empty M0
        plant = with_initial and i % 4 == 0
        record = _random_sync_instance(rng, with_initial=with_initial, plant=plant)
        reports = check_ga_properties(record)
        for name in core_names:
            assert reports[name].verdict is Verdict.PASS, (name, reports[name].witness, i)
        core_checked += 1
        cv = reports["clique_validity"]
        assert cv.verdict is not Verdict.FAIL, (cv.witness, i)
        if cv.verdict is Verdict.PASS:
            clique_applicable += 1
        if not with_initial:
            for q, view in record.receivers.items():
                assert naive_record_outputs(record, q) == expand(view.output), i
            naive_checked += 1
    assert core_checked == total
    assert clique_applicable >= total // 10
    assert naive_checked >= total // 6
    announce(
        5,
        f"{total} sync instances: 5 properties 100% pass, clique validity "
        f"applicable+pass in {clique_applicable}, {naive_checked} bit-exact vs naive tally",
    )


# ---------------------------------------------------------------------------
# 6. worked split-vote scenario (seven honest 3/4, three Byzantine)


def _split_decision_instance(eta: int):
    b = Log((Value(101, 7, 5),))
    b_prime = Log((Value(102, 7, 5),))
    inputs = {i: (b if i < 3 else b_prime) for i in range(7)}
    old_votes = [VoteMsg(i, 4, inputs[i]) for i in range(7)]
    byz_ids = frozenset({7, 8, 9})
    byz_msgs = [VoteMsg(s, 5, b) for s in sorted(byz_ids)]  # back the minority

    def delivery(q, msgs):
        if q < 3:
            return [m for m in msgs if m.sender in byz_ids]
        return []

    initial_sets = {}
    if eta >= 1:  # round-4 votes are inside the window [5 - eta, 5)
        initial_sets = {
            q: InitialVoteSet(messages=frozenset(old_votes)) for q in range(7)
        }
    record = run_instance(
        round=5,
        inputs=inputs,
        byz_msgs=byz_msgs,
        initial_sets=initial_sets,
        receivers=range(7),
        byzantine=byz_ids,
        delivery=delivery,
    )
    return record, b, b_prime


def test_criterion_6_worked_scenario():
    # expiration window of 2: the seven sync votes stay in every tally
    record, b, b_prime = _split_decision_instance(eta=2)
    for q, view in record.receivers.items():
        assert view.output.grade_of(b) != 1
        assert view.output.grade_of(b_prime) != 1
    shown = record.receivers[0]
    assert shown.m == 10
    counts = _tally_of(shown)
    assert counts[b] == 6 and counts[b_prime] == 4
    grade1 = [
        (q, log)
        for q, view in record.receivers.items()
        for log, g in expand(view.output).items()
        if g == 1
    ]
    for (qa, la) in grade1:
        for (qb, lb) in grade1:
            assert not conflicts(la, lb)

    # same adversary with no expiration window: the two groups split
    record0, b, b_prime = _split_decision_instance(eta=0)
    assert all(record0.receivers[q].output.grade_of(b) == 1 for q in range(3))
    assert all(record0.receivers[q].output.grade_of(b_prime) == 1 for q in range(3, 7))
    announce(6, "no grade-1 value and no disagreement at eta=2; split decisions at eta=0")


def _tally_of(view):
    """Votes per log among those ``view`` counts, by the oracle's naive merge."""
    return Counter(naive_merged_votes(view.initial.messages, view.received).values())


# ---------------------------------------------------------------------------
# 7. participation-drop stall


def test_criterion_7_stall_on_participation_drop():
    scenario = load_scenario(SCENARIOS / "stall_participation_drop.json")
    from sleepy_tob.cli import build_schedule
    from sleepy_tob.world import STRATEGIES

    sched = build_schedule(scenario)
    trace = run(sched, STRATEGIES["none"](), scenario.seed)

    # the value introduced for view 3 (proposed in round 4, before the drop)
    props = [e.msg for e in sends(trace.propose_sends(), scenario.seed) if e.round == 4]
    winner = max(props, key=lambda m: (m.ticket, m.sender))
    fresh = winner.log.values[-1]

    # in the view-3 voting round every awake process backs the winner log,
    # but the five sleepers' unexpired votes hold it below the 2/3 quorum
    rec5 = trace.ga_records()[5]
    for q, view in rec5.receivers.items():
        assert view.m == 12
        assert view.output.grade_of(winner.log) == 0

    decided_rounds = [
        e.round for e in trace.decide_events() if fresh in e.log.values
    ]
    assert all(r >= 11 for r in decided_rounds), decided_rounds
    assert not [r for r in decided_rounds if r <= 7], "decided within view 3"
    # once the stale votes expire, the value does get in
    assert decided_rounds and min(decided_rounds) == 11
    announce(7, f"view-3 value stalled until round {min(decided_rounds)} (quorum 7/12 short of 2/3)")


# ---------------------------------------------------------------------------
# 8. liveness at desk scale


def test_criterion_8_liveness_statistics():
    latencies = []
    leader_hits = 0
    leader_total = 0
    params = ModelParams(tau=2, eta=2, pi=0, gamma=Fraction(0), beta=THIRD)
    for seed in range(100):
        sched = constant_schedule(n=8, horizon=14, n_byz=0, params=params)
        trace = run(sched, null_strategy(), seed=seed)
        first_decided = {}
        for e in trace.decide_events():
            for v in e.log.values:
                first_decided.setdefault(v, e.round)
        for v, decided_round in first_decided.items():
            introduced = trace.first_input_round(v)
            if introduced is not None:
                latencies.append(decided_round - introduced)
        for view in range(1, (sched.horizon - 2) // 2 + 1):
            proposal_round = 2 * (view - 1)
            props = [
                e.msg
                for e in sends(trace.propose_sends(), seed)
                if e.round == proposal_round and e.msg.view == view
            ]
            if not props:
                continue
            winner = max(props, key=lambda m: (m.ticket, m.sender))
            leader_total += 1
            if winner.log.values[-1] in first_decided:
                leader_hits += 1
    mean_latency = sum(latencies) / len(latencies)
    frequency = leader_hits / leader_total
    assert mean_latency <= 8.0, mean_latency
    assert frequency >= 0.4, frequency
    announce(
        8,
        f"100 seeds: mean decision latency {mean_latency:.2f} rounds, "
        f"leader proposals decided at frequency {frequency:.2f}",
    )


# ---------------------------------------------------------------------------
# 9. churn + failure bounds imply the sleepiness condition


def test_criterion_9_bounds_imply_sleepiness():
    rng = random.Random(99)
    qualifying = 0
    rounds_checked = 0
    target = 10_000
    attempts = 0
    while qualifying < target and attempts < 3 * target:
        attempts += 1
        sched = random_bounded_schedule(rng)
        p = sched.params
        churn = check_churn(sched, p.tau, p.gamma).failing_rounds
        ratio = check_failure_ratio(sched, p.beta_tilde).failing_rounds
        if churn or ratio:
            continue
        qualifying += 1
        sleepy = check_tau_sleepiness(sched, p.tau, p.beta).failing_rounds
        for r in range(sched.horizon):
            rounds_checked += 1
            if r in sleepy:
                replay = {
                    "n": sched.n,
                    "horizon": sched.horizon,
                    "tau": p.tau,
                    "gamma": str(p.gamma),
                    "beta": str(p.beta),
                    "awake_honest": [sorted(s) for s in sched.awake_honest],
                    "byzantine": [sorted(s) for s in sched.byzantine],
                    "failing_round": r,
                }
                pytest.fail(
                    "sleepiness violated; replayable schedule:\n"
                    + json.dumps(replay, indent=2)
                )
    assert qualifying >= target
    announce(
        9,
        f"{qualifying} bounded schedules, sleepiness held in all {rounds_checked} rounds",
    )


# ---------------------------------------------------------------------------
# 10. byte-level determinism


def test_criterion_10_determinism(tmp_path):
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    for name in ("prop1_expiring", "sync_faultfree"):
        outs = []
        for tag, hash_seed in (("a", "1"), ("b", "2")):
            out = tmp_path / f"{name}_{tag}"
            # separate interpreter processes with different hash seeds: the
            # trace bytes must not depend on process-level hashing
            proc = subprocess.run(
                [sys.executable, "-m", "sleepy_tob.cli", "run",
                 str(SCENARIOS / f"{name}.json"), "--out", str(out)],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
                capture_output=True,
            )
            assert proc.returncode in (0, 1), proc.stderr
            outs.append(out)
        a, b = outs
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    scenario = load_scenario(SCENARIOS / "prop1_expiring.json")
    t1, _ = run_scenario(scenario)
    t2, _ = run_scenario(scenario)
    assert t1 == t2 and trace_lines(t1, scenario) == trace_lines(t2, scenario)
    announce(10, "byte-identical traces and reports across separate processes")
