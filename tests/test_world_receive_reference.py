"""The shared receive phase and the cohort send phase of ``World`` against
the per-receiver, per-process ones they replaced.

``PerReceiverWorld`` below keeps ``_broadcast`` and ``step_round`` verbatim,
with the ``Phase`` and ``ViewClock`` they read, as they were when every receiver absorbed every delivered message into its
own store and ran ``latest_unexpired``, ``merge_latest`` and ``grade`` on
it, except that the seed and ``eta`` are now passed as arguments, that it
steps each process on its own with ``helpers.reference_step_round1`` and
``reference_step_round2``, the per-process steps the cohort steps replaced,
that it keeps its own per-receiver queues, ``queues``, since
``World.pending`` is derived from the send log, that it splits a queue of
messages with ``split_queue``, which is ``ga.delivered`` as it was before
delivery named send indices, and that it records each delivery as a
(round, receiver, messages) triple, since a ``DeliverEvent`` names sends
by their index in ``World.sent``, that it records a round's send phase
in ``World``'s order: every decision, then every vote, then every
proposal, each in pid order, then the strategy's messages, and that it
records one event per member (``helpers.Sent``, ``helpers.Decided``), as
``World`` did before it recorded runs.  After every round,
``World.pending`` must equal those queues for every process not Byzantine
in that round, and in a synchronous round a receiver that held nothing
back must be delivered the range from its cursor to the end of the send
log.  Both worlds must give equal runs: every event of ``World``'s, each
run expanded to its members (``helpers.expand_events``), a delivery
compared with the reference's triple by resolving its ids through
``World.sent``, and each process's final ``votes_seen``, ``candidate`` and
pending output, and its final ``proposals_seen``, each run in it expanded
to its members' proposals, on the views it can still read, those whose
round-1 step lies at or past the horizon: ``World`` no longer takes a view
out of a store at its round-1 step, and drops views that no step reads
again.  The processes awake at the horizon, whose last receive phase is
synchronous, must share one proposal store.  No preset votes in round 0,
so the reference's round-0 view is empty, as ``World``'s is.
Events are compared by value, so the vote sets of each ``GaRecord`` view
compare as sets; their iteration order may differ after a window and is
not compared.  Schedules are generated ones with windows, and hand-built
ones whose receivers sleep through a window, wake inside it, or are
corrupted on the way, and one in which a stale candidate splits a
synchronous round into two cohorts.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Decided,
    Delivered,
    Sent,
    byzantine_genesis,
    deliveries,
    expand_events,
    expand_proposals,
    late_start_schedule,
    reference_step_round1,
    reference_step_round2,
    reference_step_view0,
    sends,
)

from sleepy_tob.core import Log, ProcessId, VoteMsg
from sleepy_tob.ga import ForgeryError, GaRecord, ReceiverView, grade, merge_latest
from sleepy_tob.model_checks import ModelParams
from sleepy_tob.tob import latest_unexpired
from sleepy_tob.world import (
    STRATEGIES,
    AdversaryStrategy,
    InfeasibleScheduleError,
    Msg,
    Schedule,
    World,
    constant_schedule,
    generate_schedule,
)

ETAS = [0, 1, 2, 4, None]

# ---------------------------------------------------------------------------
# reference: one receive computation per receiver


class Phase(Enum):
    VIEW0 = "view0"
    ROUND1 = "round1"
    ROUND2 = "round2"


@dataclass(frozen=True, slots=True)
class ViewClock:
    """Maps a round number onto its view and phase: view 0 lasts one round,
    view v >= 1 occupies rounds 2v-1 and 2v."""

    round: int

    @property
    def view(self) -> int:
        return 0 if self.round == 0 else (self.round + 1) // 2

    @property
    def phase(self) -> Phase:
        if self.round == 0:
            return Phase.VIEW0
        return Phase.ROUND1 if self.round % 2 == 1 else Phase.ROUND2


def split_queue(q: ProcessId, queued: list[Msg], chosen) -> tuple[list[Msg], list[Msg]]:
    chosen = set(chosen)
    kept, held = [], []
    for m in queued:
        (kept if m in chosen or m.sender == q else held).append(m)
    return kept, held


class PerReceiverWorld(World):
    def __init__(self, schedule: Schedule, strategy, seed: int):
        super().__init__(schedule, strategy, seed)
        self.queues: dict[ProcessId, list[Msg]] = {p: [] for p in range(schedule.n)}

    def _broadcast(self, msg: Msg, r: int) -> None:
        self.events.append(Sent(round=r, msg=msg))
        for q in range(self.schedule.n):
            self.queues[q].append(msg)

    def step_round(self, r: int) -> None:
        """Execute the send and receive phases of round ``r``."""
        sched = self.schedule
        clock = ViewClock(r)
        inputs: dict[ProcessId, Log] = {}
        # the decisions are recorded as they are taken, the votes and then
        # the proposals once every process has stepped
        cast: list[Msg] = []
        proposed: list[Msg] = []

        for p in sorted(sched.awake_honest[r]):
            state = self.states[p]
            if clock.phase is Phase.VIEW0:
                proposed += reference_step_view0(state, self.seed)
                continue
            # p is awake at r, so it received in round r - 1 and its
            # pending output is that round's
            outputs = state.pending_output
            if clock.phase is Phase.ROUND1:
                proposals = state.proposals_seen.pop(clock.view, set())
                decided, vote = reference_step_round1(state, clock.view, outputs, proposals, {})
                if decided is not None:
                    self.events.append(Decided(round=r, pid=p, log=decided))
                cast.append(vote)
            else:
                vote, proposal = reference_step_round2(state, clock.view, outputs, self.seed)
                cast.append(vote)
                proposed.append(proposal)
            inputs[p] = vote.log
        for msg in (*cast, *proposed):
            self._broadcast(msg, r)

        for msg in self.strategy.messages(self, r):
            if msg.sender not in sched.byzantine[r]:
                raise ForgeryError(
                    f"strategy authored a message for {msg.sender}, not Byzantine in round {r}"
                )
            if isinstance(msg, VoteMsg) and msg.round != r:
                raise ForgeryError(
                    f"strategy vote claims round {msg.round} during round {r}"
                )
            self._broadcast(msg, r)

        synchronous = sched.sync(r)
        views: dict[ProcessId, ReceiverView] = {}
        for q in sorted(sched.awake_honest[r + 1]):
            state = self.states[q]
            queued = self.queues[q]
            if synchronous:
                kept, self.queues[q] = queued, []
            else:
                chosen = self.strategy.delivery_filter(self, r, q, tuple(queued))
                kept, self.queues[q] = split_queue(q, queued, chosen)
            self.events.append((r, q, tuple(kept)))
            for m in kept:
                state.absorb(m)
            initial, current = latest_unexpired(state.votes_seen, r, sched.params.eta)
            merged = merge_latest(initial, current)
            output = grade(merged)
            state.pending_output = output
            views[q] = ReceiverView(
                initial=initial,
                received=current,
                output=output,
                m=len(merged),
            )

        if r >= 1:
            self.events.append(GaRecord(
                round=r,
                synchronous=synchronous,
                inputs=inputs,
                byzantine=sched.byzantine[r],
                receivers=views,
            ))


# ---------------------------------------------------------------------------
# the comparison


def assert_same_run(
    schedule: Schedule, make_strategy: Callable[[], AdversaryStrategy], seed: int
) -> None:
    ref = PerReceiverWorld(schedule, make_strategy(), seed)
    new = World(schedule, make_strategy(), seed)
    horizon = schedule.horizon
    for r in range(horizon):
        before = len(new.events)
        cursor = list(new.cursor)
        holding = {q for q in range(schedule.n) if new.held[q]}
        ref.step_round(r)
        new.step_round(r)
        pending = new.pending
        for q in range(schedule.n):
            if q not in schedule.byzantine[r]:
                assert pending[q] == ref.queues[q], (r, q)
        if schedule.sync(r):
            end = len(new.sent)
            for e in deliveries(new.events[before:]):
                if e.receiver not in holding:
                    assert type(e.ids) is range, (r, e.receiver)
                    assert e.ids == range(cursor[e.receiver], end), (r, e.receiver)
    assert [e.msg for e in sends(new.events, seed)] == new.sent
    events = expand_events(new.events, seed)
    assert len(events) == len(ref.events)
    for got, want in zip(events, ref.events):
        if isinstance(got, Delivered):
            got = (got.round, got.receiver, tuple(new.sent[i] for i in got.ids))
        assert got == want

    def readable(store):
        return {v: props for v, props in store.items() if 2 * v - 1 >= horizon and props}

    for p, want in ref.states.items():
        got = new.states[p]
        assert got.votes_seen == want.votes_seen, p
        assert readable(expand_proposals(got.proposals_seen, seed)) == readable(
            want.proposals_seen), p
        assert got.candidate == want.candidate, p
        assert got.pending_output == want.pending_output, p
    assert len({id(new.states[q].proposals_seen) for q in schedule.awake_honest[horizon]}) <= 1
    for record in new.events:
        if isinstance(record, GaRecord) and record.synchronous:
            assert len({id(view) for view in record.receivers.values()}) <= 1


def params(eta: int | None, pi: int, tau: int | None = None) -> ModelParams:
    tau = tau if tau is not None else (eta if eta is not None else 4)
    return ModelParams(tau=tau, eta=eta, pi=pi, gamma=Fraction(1, 10), beta=Fraction(1, 3))


@settings(max_examples=60, deadline=None)
@given(
    preset=st.sampled_from(["none", "prop1", "split_decision"]),
    n=st.integers(6, 12),
    n_byz=st.integers(2, 3),
    tau=st.integers(2, 4),
    eta=st.sampled_from(ETAS),
    window=st.tuples(st.integers(1, 3), st.integers(1, 5)),
    seed=st.integers(0, 2**16),
)
def test_generated_windows_match_reference(preset, n, n_byz, tau, eta, window, seed):
    """Windows of generated schedules, inside and outside the model; a
    constant schedule stands in when no generated one fits."""
    pi, r_a = min(window[0], tau - 1), window[1]
    horizon = r_a + pi + 6
    p = params(eta, pi, tau)
    try:
        schedule = generate_schedule(n, horizon, p, r_a, seed, n_byz=n_byz, max_attempts=3)
    except InfeasibleScheduleError:
        schedule = constant_schedule(n, horizon, n_byz, p, r_a=r_a)
    assert_same_run(schedule, STRATEGIES[preset], seed)


@st.composite
def hand_built(draw):
    """A schedule whose honest processes each sleep through the window, wake
    inside it, fall asleep inside it, or sleep through some other stretch;
    process 0 never sleeps, and one process may turn Byzantine mid-run."""
    preset = draw(st.sampled_from(["none", "prop1", "split_decision"]))
    n_honest = draw(st.integers(2, 7))
    n_byz = draw(st.integers(2 if preset == "prop1" else 0, 3))
    n = n_honest + n_byz
    pi = draw(st.integers(0, 3))
    r_a = draw(st.integers(0, 4)) if pi else None
    horizon = (r_a + pi + draw(st.integers(2, 5))) if pi else draw(st.integers(3, 10))
    lo, hi = (r_a + 1, r_a + pi + 1) if pi else (0, 0)  # beginning-of-round bounds
    asleep: dict[ProcessId, range] = {}
    for p in range(1, n_honest):
        mode = draw(st.sampled_from(["awake", "through", "wakes", "sleeps", "any"]))
        if mode == "through":
            asleep[p] = range(draw(st.integers(0, lo)), draw(st.integers(hi + 1, horizon + 2)))
        elif mode == "wakes":
            asleep[p] = range(draw(st.integers(0, lo)), draw(st.integers(lo + 1, hi + 1)))
        elif mode == "sleeps":
            asleep[p] = range(draw(st.integers(lo, hi)), draw(st.integers(hi + 1, horizon + 2)))
        elif mode == "any":
            a = draw(st.integers(0, horizon))
            asleep[p] = range(a, draw(st.integers(a, horizon + 2)))
    turncoat = draw(st.none() | st.tuples(st.integers(1, n_honest - 1), st.integers(1, horizon)))
    awake, byz = [], []
    base = frozenset(range(n_honest, n))
    for r in range(horizon + 1):
        corrupt = frozenset([turncoat[0]]) if turncoat and r >= turncoat[1] else frozenset()
        awake.append(frozenset(
            p for p in range(n_honest) if r not in asleep.get(p, ()) and p not in corrupt
        ))
        byz.append(base | corrupt)
    schedule = Schedule(
        n=n,
        horizon=horizon,
        awake_honest=tuple(awake),
        byzantine=tuple(byz),
        r_a=r_a,
        params=params(draw(st.sampled_from(ETAS)), pi),
    )
    return schedule, preset, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(hand_built())
def test_sleepers_and_wakers_match_reference(case):
    schedule, preset, seed = case
    assert_same_run(schedule, STRATEGIES[preset], seed)




def test_a_stale_candidate_steps_in_a_cohort_of_its_own():
    """Process 1 sleeps at round 3, view 2's round-1 step, so it keeps the
    candidate it set in view 1 while the others refresh theirs.  Nobody is
    awake at round 5, view 3's round-1 step, so with ``eta`` 0 the shared
    output of that synchronous round is empty, and every process wakes into
    its round-2 step at round 6 falling back to its own candidate: the round
    steps two cohorts, which a cohort key without the candidate would merge.
    (A nonempty output always grades the empty log 1, so only an empty one
    lets the candidate through.)"""
    horizon = 8
    schedule = Schedule(
        n=4,
        horizon=horizon,
        awake_honest=tuple(
            frozenset() if r == 5 else frozenset(p for p in range(4) if (p, r) != (1, 3))
            for r in range(horizon + 1)
        ),
        byzantine=(frozenset(),) * (horizon + 1),
        r_a=None,
        params=params(0, 0, 2),
    )
    assert_same_run(schedule, STRATEGIES["none"], 7)
    world = World(schedule, STRATEGIES["none"](), 7)
    for r in range(6):
        world.step_round(r)
    states = world.states
    output = states[0].pending_output
    assert not output and all(states[q].pending_output is output for q in range(4))
    assert len({id(states[q].proposals_seen) for q in range(4)}) == 1
    stale, fresh = states[1].candidate, states[0].candidate
    assert stale != fresh and all(states[q].candidate == fresh for q in (2, 3))
    world.step_round(6)
    record = world.events[-1]
    assert isinstance(record, GaRecord) and record.synchronous
    assert record.inputs == {0: fresh, 1: stale, 2: fresh, 3: fresh}


@pytest.mark.parametrize("make_strategy", [STRATEGIES["none"], byzantine_genesis],
                         ids=["none", "byzantine_genesis"])
def test_a_round_0_without_a_well_behaved_process_sends_no_run_of_theirs(make_strategy):
    """With nobody well-behaved awake at round 0 no one proposes the genesis
    log for them: round 0 sends only the strategy's messages, so round 1
    votes the empty candidate, or the genesis log a Byzantine process
    proposed, and every send event names a sender."""
    schedule = late_start_schedule()
    assert_same_run(schedule, make_strategy, 3)
    trace = World(schedule, make_strategy(), 3).run()
    assert all(e.senders for e in trace.send_events())
    round0 = [e.senders for e in trace.send_events() if e.round == 0]
    assert round0 == ([(4,)] if make_strategy is byzantine_genesis else [])
