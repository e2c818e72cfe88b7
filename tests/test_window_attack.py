"""The window-attack family against the two attacks it replaced.

``reference_prop1`` and ``reference_split_decision`` are the hand-written
strategies that ``prop1`` and ``split_decision`` used to be, kept verbatim.
Each preset of ``world.window_attack`` must send the same messages, in the
same order, in every round, and deliver the same list from any queue a
receiver can hold in an asynchronous round.
"""

from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepy_tob.core import GENESIS, Log, ProcessId, ProposeMsg, Value, VoteMsg, vrf_eval
from sleepy_tob.model_checks import ModelParams
from sleepy_tob.oracle import Verdict, check_async_resilience
from sleepy_tob.tob import view_of
from sleepy_tob.world import (
    AdversaryStrategy,
    InfeasibleScheduleError,
    Msg,
    Schedule,
    World,
    constant_schedule,
    generate_schedule,
    null_strategy,
    run,
    strategy_prop1,
    strategy_split_decision,
)


def _window_target(world: World) -> Log:
    sched = world.schedule
    assert sched.r_a is not None
    first_byz = min(sched.byzantine[sched.r_a + 1])
    view = view_of(sched.r_a + 1)
    return Log((Value(id=10_000 + view, proposer=first_byz, view=view),))


def reference_prop1() -> AdversaryStrategy:
    def messages(world: World, r: int) -> list[Msg]:
        sched = world.schedule
        if sched.r_a is None or r not in sched.window_rounds:
            return []
        target = _window_target(world)
        out: list[Msg] = []
        for b in sorted(sched.byzantine[r]):
            out.append(VoteMsg(sender=b, round=r, log=target))
            if r % 2 == 0 and r >= 2:
                next_view = r // 2 + 1
                out.append(
                    ProposeMsg(
                        sender=b,
                        view=next_view,
                        log=target,
                        ticket=vrf_eval(world.seed, b, next_view),
                    )
                )
        return out

    def delivery_filter(
        world: World, r: int, q: ProcessId, cand: Sequence[Msg]
    ) -> list[Msg]:
        byz = world.schedule.byzantine[r]
        return [m for m in cand if m.sender in byz]

    def validate(world: World) -> None:
        sched = world.schedule
        for r in sched.window_rounds:
            if len(sched.byzantine[r]) < 2:
                raise ValueError(
                    "the suppression attack needs at least two Byzantine processes"
                )

    return AdversaryStrategy("prop1", messages, delivery_filter, validate)


def reference_split_decision() -> AdversaryStrategy:
    def _targets(world: World) -> tuple[Log, Log]:
        sched = world.schedule
        assert sched.r_a is not None
        byz = sched.byzantine[sched.r_a + 1]
        first_byz = min(byz) if byz else 0
        view = view_of(sched.r_a + 1)
        return (
            Log((Value(id=20_000 + view, proposer=first_byz, view=view),)),
            Log((Value(id=20_001 + view, proposer=first_byz, view=view),)),
        )

    def messages(world: World, r: int) -> list[Msg]:
        sched = world.schedule
        if sched.r_a is None or r not in sched.window_rounds:
            return []
        left, right = _targets(world)
        out: list[Msg] = []
        for b in sorted(sched.byzantine[r]):
            out.append(VoteMsg(sender=b, round=r, log=left))
            out.append(VoteMsg(sender=b, round=r, log=right))
        return out

    def delivery_filter(
        world: World, r: int, q: ProcessId, cand: Sequence[Msg]
    ) -> list[Msg]:
        byz = world.schedule.byzantine[r]
        left, right = _targets(world)
        mine = left if q % 2 == 0 else right
        return [
            m
            for m in cand
            if m.sender in byz and isinstance(m, VoteMsg) and m.log == mine
        ]

    return AdversaryStrategy("split_decision", messages, delivery_filter)


PRESETS = {
    "prop1": (strategy_prop1, reference_prop1),
    "split_decision": (strategy_split_decision, reference_split_decision),
}


@st.composite
def schedules(draw) -> Schedule:
    n = draw(st.integers(6, 16))
    n_byz = draw(st.integers(0, min(5, n - 1)))
    horizon = draw(st.integers(6, 14))
    eta = draw(st.sampled_from([None, 0, 2, 4]))
    pi = draw(st.integers(0, 3))
    r_a = None if pi == 0 else draw(st.integers(0, horizon - pi - 2))
    params = ModelParams(tau=4, eta=eta, pi=pi, gamma=Fraction(1, 10), beta=Fraction(1, 3))
    if draw(st.booleans()):
        try:
            return generate_schedule(n, horizon, params, r_a, draw(st.integers(0, 99)),
                                     n_byz=n_byz, max_attempts=3)
        except InfeasibleScheduleError:
            pass  # no bounded-churn schedule fits; the constant one still has a window
    return constant_schedule(n, horizon, n_byz, params, r_a=r_a)


def honest_messages(sched: Schedule, seed: int, r: int) -> list[Msg]:
    """What the well-behaved processes send in round ``r``, roughly: a vote
    for a genesis chain and, on round-2 rounds, a proposal extending it."""
    this_view = view_of(r)
    out: list[Msg] = []
    for h in sorted(sched.awake_honest[r]):
        log = Log((GENESIS,)).extended(Value(id=this_view, proposer=h, view=this_view))
        out.append(VoteMsg(sender=h, round=r, log=log))
        if r % 2 == 0:
            view = this_view + 1
            out.append(ProposeMsg(sender=h, view=view, log=log, ticket=vrf_eval(seed, h, view)))
    return out


def outcome(validate, world: World) -> str | None:
    try:
        if validate is not None:
            validate(world)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=120, deadline=None)
@given(sched=schedules(), seed=st.integers(0, 2**16), rng=st.randoms(use_true_random=False))
def test_preset_matches_hand_written_attack(preset, sched, seed, rng):
    make, make_reference = PRESETS[preset]
    family, reference = make(), make_reference()
    assert family.name == reference.name == preset
    world = World(sched, null_strategy(), seed)
    rejected = outcome(reference.validate, world)
    assert outcome(family.validate, world) == rejected
    if rejected is not None:
        return  # World never runs a strategy that rejects its schedule

    sent: list[Msg] = []  # every round's messages so far, older rounds first
    for r in range(sched.horizon):
        byzantine = reference.messages(world, r)
        assert family.messages(world, r) == byzantine, r
        sent += honest_messages(sched, seed, r) + byzantine
        if sched.sync(r):
            continue
        for q in range(sched.n):
            queue = list(sent)
            rng.shuffle(queue)
            assert family.delivery_filter(world, r, q, queue) == reference.delivery_filter(
                world, r, q, queue
            ), (r, q)


@pytest.mark.parametrize("eta", [2, 3, 4])
def test_attacks_win_only_past_the_expiry_window(eta):
    """With ``tau = eta`` and full participation, neither preset breaks
    asynchrony resilience in a window of ``eta - 1`` or ``eta`` rounds, and
    both break it in every run once the window lasts ``eta + 1`` rounds:
    only then have the votes cast before the window all expired."""
    r_a = 4
    fails = {}
    for pi in (eta - 1, eta, eta + 1):
        params = ModelParams(tau=eta, eta=eta, pi=pi, gamma=Fraction(0), beta=Fraction(1, 3))
        verdicts = [
            check_async_resilience(
                run(constant_schedule(10, r_a + pi + 10, n_byz, params, r_a=r_a), make(), seed),
                r_a, pi,
            ).verdict
            for make, n_byz in ((strategy_prop1, 2), (strategy_split_decision, 3))
            for seed in range(4)
        ]
        fails[pi] = verdicts.count(Verdict.FAIL)
    assert fails == {eta - 1: 0, eta: 0, eta + 1: 8}
