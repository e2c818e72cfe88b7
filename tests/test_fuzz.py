"""Schedule fuzzing: under synchrony, honest-only runs keep safety no
matter how participation fluctuates (liveness may stall, safety may not).
Every awake-at-round-end process holds the complete message history, so
all same-round tallies agree; sleep and wake patterns only delay people.

The model needs at least one honest process awake in every executed round
(``check_tau_sleepiness`` demands |H_r| > (1 - beta) * |S_[r-tau, r]|, which
fails when H_r is empty).  A round with nobody awake, once it is older than
the expiration window, erases every vote that still counts, so the
generated schedules keep each executed round non-empty and one pinned
schedule shows what happens without that."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import decisions

from sleepy_tob.model_checks import ModelParams, check_tau_sleepiness
from sleepy_tob.oracle import Verdict, check_safety_after, check_trace_wellformed
from sleepy_tob.world import Schedule, null_strategy, run

THIRD = Fraction(1, 3)


@st.composite
def honest_schedules(draw):
    n = draw(st.integers(3, 7))
    horizon = draw(st.integers(6, 12))
    eta = draw(st.sampled_from([0, 1, 2, 4, None]))
    awake = []
    for r in range(horizon + 1):
        # the extra entry (end of the last round) may be empty
        members = draw(
            st.sets(st.integers(0, n - 1), min_size=int(r < horizon), max_size=n)
        )
        awake.append(frozenset(members))
    params = ModelParams(
        tau=eta if eta is not None else 4,
        eta=eta,
        pi=0,
        gamma=Fraction(1, 4),
        beta=THIRD,
    )
    return Schedule(
        n=n,
        horizon=horizon,
        awake_honest=tuple(awake),
        byzantine=tuple([frozenset()] * (horizon + 1)),
        r_a=None,
        params=params,
    )


@settings(max_examples=120, deadline=None)
@given(honest_schedules(), st.integers(0, 2**32 - 1))
def test_honest_synchronous_runs_are_always_safe(schedule, seed):
    trace = run(schedule, null_strategy(), seed)
    assert check_safety_after(trace, 0).verdict is Verdict.PASS
    assert check_trace_wellformed(trace).verdict is Verdict.PASS


@settings(max_examples=60, deadline=None)
@given(honest_schedules(), st.integers(0, 2**32 - 1))
def test_honest_runs_decide_only_extensions_per_process(schedule, seed):
    trace = run(schedule, null_strategy(), seed)
    last = {}
    for e in decisions(trace.events):
        prev = last.get(e.pid)
        if prev is not None:
            from sleepy_tob.core import compatible

            assert compatible(prev, e.log)
        last[e.pid] = e.log


def test_round_with_nobody_awake_can_break_safety_under_expiry():
    # Process 0 decides genesis, then rounds 4-7 are empty: with eta = 0
    # its votes expire, process 1 wakes knowing nothing and proposes a log
    # that drops genesis, and process 0 later decides that log.
    p0, p1, nobody = frozenset({0}), frozenset({1}), frozenset()
    awake = (p0,) * 4 + (nobody,) * 4 + (p1,) + (p0,) * 3 + (nobody,)
    schedule = Schedule(
        n=3,
        horizon=12,
        awake_honest=awake,
        byzantine=(frozenset(),) * 13,
        r_a=None,
        params=ModelParams(tau=0, eta=0, pi=0, gamma=Fraction(1, 4), beta=THIRD),
    )
    sleepiness = check_tau_sleepiness(schedule, 0, THIRD)
    assert sleepiness.failing_rounds == (4, 5, 6, 7)
    trace = run(schedule, null_strategy(), 0)
    assert check_safety_after(trace, 0).verdict is Verdict.FAIL
