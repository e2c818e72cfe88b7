"""End-to-end runs exercising paths the module tests touch only in
isolation: churn with sleep/wake cycles, corruption inside the window,
never-expiring votes, adversarial proposal ties, and Byzantine proposals
and votes outside any window."""

from fractions import Fraction

import pytest
from helpers import fields_key

from sleepy_tob.core import Log, ProposeMsg, Value, VoteMsg, vrf_eval
from sleepy_tob.ga import GaOutput
from sleepy_tob.model_checks import ModelParams, check_all, check_async_conditions
from sleepy_tob.oracle import (
    Verdict,
    check_async_resilience,
    check_healing,
    check_liveness_after,
    check_safety_after,
)
from sleepy_tob.tob import Phase, ProcessState, ViewClock, step_round1
from sleepy_tob.world import (
    AdversaryStrategy,
    Schedule,
    SendEvent,
    Trace,
    World,
    constant_schedule,
    generate_schedule,
    null_strategy,
    run,
    strategy_prop1,
)

THIRD = Fraction(1, 3)


def test_churny_faultfree_run_stays_safe_and_live():
    sched = generate_schedule(
        n=16, horizon=20,
        params=ModelParams(tau=4, eta=4, pi=0, gamma=Fraction(1, 10), beta=THIRD),
        r_a=None, seed=21, n_byz=0,
    )
    assert check_all(sched).all_pass
    trace = run(sched, null_strategy(), seed=21)
    assert check_safety_after(trace, 0).verdict is Verdict.PASS
    assert check_liveness_after(trace, 0, 10).verdict is Verdict.PASS
    # someone actually slept and woke again, so queued delivery was exercised
    slept = any(
        p not in sched.awake_honest[r] and p in sched.awake_honest[r + 1]
        for r in range(sched.horizon)
        for p in range(sched.n)
    )
    assert slept


def test_corruption_inside_window_still_resilient():
    # two Byzantine from the start, one clique member corrupted mid-window;
    # the survivors still outnumber everyone whose votes count
    n, horizon, r_a, pi = 12, 18, 6, 2
    awake, byz = [], []
    for r in range(horizon + 1):
        if r <= r_a + 1:
            awake.append(frozenset(range(10)))
            byz.append(frozenset({10, 11}))
        else:
            awake.append(frozenset(range(9)))
            byz.append(frozenset({9, 10, 11}))
    params = ModelParams(tau=4, eta=4, pi=pi, gamma=Fraction(1, 10), beta=THIRD)
    sched = Schedule(
        n=n,
        horizon=horizon,
        awake_honest=tuple(awake),
        byzantine=tuple(byz),
        r_a=r_a,
        params=params,
    )
    sched.validate()
    assert check_async_conditions(sched, r_a, pi, 4, THIRD).passed
    trace = run(sched, strategy_prop1(), seed=13)
    assert check_async_resilience(trace, r_a, pi).verdict is Verdict.PASS
    assert check_healing(trace, r_a + pi, liveness_window=8).verdict is Verdict.PASS


def test_infinite_expiration_faultfree():
    params = ModelParams(tau=2, eta=None, pi=0, gamma=Fraction(0), beta=THIRD)
    sched = constant_schedule(n=6, horizon=12, n_byz=0, params=params)
    trace = run(sched, null_strategy(), seed=4)
    assert check_safety_after(trace, 0).verdict is Verdict.PASS
    assert check_liveness_after(trace, 0, 10).verdict is Verdict.PASS


def test_proposal_equivocation_resolved_by_smallest_log():
    # one sender, one view, two different logs under the same lottery ticket:
    # the tie breaks to the lexicographically smaller log
    state = ProcessState(pid=0)
    tag = vrf_eval(9, 5, 2)
    small = Log((Value(1, 5, 2),))
    large = Log((Value(8, 5, 2),))
    pa = ProposeMsg(sender=5, view=2, log=large, ticket=tag)
    pb = ProposeMsg(sender=5, view=2, log=small, ticket=tag)
    for ordering in ([pa, pb], [pb, pa]):
        _, (vote,) = step_round1([state], 2, GaOutput(), ordering)
        assert vote.log == small


def stale_prefix_strategy() -> AdversaryStrategy:
    """On round-2 rounds every Byzantine process proposes, with its genuine
    ticket, the longest log a well-behaved process voted in that round
    minus its last value: a strict prefix of the chain, which a round-1
    rule that takes any proposal compatible with the candidate lets win the
    lottery, so every honest process votes a log shorter than one it
    decided."""

    def messages(world: World, r: int) -> list[ProposeMsg]:
        clock = ViewClock(r)
        if clock.phase is not Phase.ROUND2:
            return []
        byz = world.schedule.byzantine[r]
        votes = [
            e.msg.log for e in world.events
            if type(e) is SendEvent and e.round == r and type(e.msg) is VoteMsg
            and e.msg.sender not in byz
        ]
        longest = max(votes, key=lambda log: (len(log), fields_key(log)))
        stale = Log(longest.values[:-1])
        view = clock.view + 1
        return [
            ProposeMsg(sender=b, view=view, log=stale, ticket=vrf_eval(world.seed, b, view))
            for b in sorted(byz)
        ]

    return AdversaryStrategy("stale_prefix", messages, lambda world, r, q, cand: cand)


@pytest.mark.parametrize("n_byz", [1, 2, 3])
def test_round1_never_votes_a_stale_prefix(n_byz):
    params = ModelParams(tau=4, eta=4, pi=0, gamma=Fraction(0), beta=THIRD)
    sched = constant_schedule(n=10, horizon=20, n_byz=n_byz, params=params)
    assert check_all(sched).all_pass
    fails = [
        seed for seed in range(20)
        if check_safety_after(run(sched, stale_prefix_strategy(), seed), 0).verdict
        is Verdict.FAIL
    ]
    assert fails == []


def test_round0_votes_decide_nothing_at_round1():
    # honest processes send no vote in round 0, so round 0 is no agreement
    # instance: three Byzantine votes for one conflicting log, which alone
    # would grade it 1, must not make anyone decide it (or take it as its
    # candidate) at round 1
    params = ModelParams(tau=4, eta=4, pi=0, gamma=Fraction(0), beta=THIRD)
    sched = constant_schedule(n=10, horizon=12, n_byz=3, params=params)
    target = Log((Value(id=99, proposer=9, view=0),))

    def messages(world: World, r: int) -> list[VoteMsg]:
        if r != 0:
            return []
        return [VoteMsg(sender=b, round=0, log=target) for b in sorted(world.schedule.byzantine[0])]

    world = World(sched, AdversaryStrategy("round0", messages, lambda w, r, q, c: c), seed=5)
    world.step_round(0)
    assert all(world.states[p].pending_output == GaOutput() for p in sched.awake_honest[1])
    for r in range(1, sched.horizon):
        world.step_round(r)
    trace = Trace(sched, "round0", tuple(world.events))
    assert [e for e in trace.decide_events() if e.round == 1] == []
    assert all(target.values[0] not in e.log.values for e in trace.decide_events())
    assert check_safety_after(trace, 0).verdict is Verdict.PASS
