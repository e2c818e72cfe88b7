import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from sleepy_tob.cli import build_schedule, load_scenario, trace_lines
from sleepy_tob.core import GENESIS, Log, ProposeMsg, Value, VoteMsg, vrf_eval
from sleepy_tob.ga import ForgeryError
from sleepy_tob.model_checks import ModelParams, check_all
from sleepy_tob.world import (
    AdversaryStrategy,
    DecideEvent,
    DeliverEvent,
    InfeasibleScheduleError,
    STRATEGIES,
    Schedule,
    ScheduleError,
    SendEvent,
    Trace,
    World,
    constant_schedule,
    generate_schedule,
    null_strategy,
    run,
    strategy_prop1,
    strategy_split_decision,
)

THIRD = Fraction(1, 3)
SCENARIOS = Path(__file__).parent.parent / "scenarios"


def params(tau=2, eta=2, pi=0, gamma="0", beta="1/3"):
    return ModelParams(tau=tau, eta=eta, pi=pi, gamma=Fraction(gamma), beta=Fraction(beta))


def sync_faultfree(n=6, horizon=12, eta=2):
    return constant_schedule(
        n=n, horizon=horizon, n_byz=0, params=params(tau=eta, eta=eta)
    )


class TestDeterminism:
    def test_identical_inputs_identical_traces(self):
        sched = sync_faultfree()
        a = run(sched, null_strategy(), seed=5)
        b = run(sched, null_strategy(), seed=5)
        assert a == b

    def test_different_seed_changes_leaders(self):
        sched = sync_faultfree()
        a = run(sched, null_strategy(), seed=5)
        b = run(sched, null_strategy(), seed=6)
        assert a != b


class TestTraceIndex:
    def test_accessors_keep_event_order_and_return_fresh_lists(self):
        sched = constant_schedule(n=3, horizon=4, n_byz=1, params=params())
        fresh = Value(7, 0, 1)
        log = Log((GENESIS, fresh))

        def propose(sender, view):
            return ProposeMsg(sender=sender, view=view, log=log, ticket=vrf_eval(0, sender, view))

        events = (
            SendEvent(0, propose(2, 1)),  # Byzantine: introduces nothing
            SendEvent(1, VoteMsg(sender=0, round=1, log=log)),
            SendEvent(2, propose(0, 1)),  # first well-behaved proposal of the tip
            DecideEvent(2, 0, log),
            SendEvent(3, propose(1, 2)),
        )
        trace = Trace(sched, "none", events)
        assert trace.first_input_round(fresh) == 2
        assert trace.first_input_round(GENESIS) is None
        # the round-3 proposal of the same tip introduces nothing new
        assert trace.inputs_since(2) == {fresh} and trace.inputs_since(3) == set()
        assert [e.round for e in trace.send_events()] == [0, 1, 2, 3]
        assert [e.round for e in trace.vote_sends()] == [1]
        assert [e.round for e in trace.propose_sends()] == [0, 2, 3]
        trace.decide_events().clear()
        assert trace.decide_events() == [DecideEvent(2, 0, log)]
        assert trace.decided_up_to(1) == [] and trace.decided_up_to(2) == [log]

    def test_events_are_named_tuples_filed_by_type(self):
        """Events are named tuples: fixed fields, read-only, and equal to the
        plain tuple of their fields, so a decision equals the vote with the
        same three fields.  The index files events by type, not by value."""
        assert SendEvent._fields == ("round", "msg")
        assert DeliverEvent._fields == ("round", "receiver", "ids")
        assert DecideEvent._fields == ("round", "pid", "log")
        log = Log((GENESIS,))
        send, decide = SendEvent(3, VoteMsg(3, 3, log)), DecideEvent(3, 3, log)
        for event in (send, DeliverEvent(3, 0, (0,)), decide):
            with pytest.raises(AttributeError):
                event.round = 4
        assert decide == send.msg == (3, 3, log)
        assert decide._replace(round=4) == DecideEvent(4, 3, log)
        trace = Trace(constant_schedule(n=4, horizon=4, n_byz=0, params=params()), "none",
                      (send, decide))
        (decided,), (voted,) = trace.decide_events(), trace.vote_sends()
        assert decided is decide and voted is send
        assert trace.send_events() == [send] and trace.propose_sends() == []
        assert trace.decided_up_to(3) == [log]


class TestDelivery:
    def test_sync_round_delivers_everything_once(self):
        sched = sync_faultfree(n=4, horizon=6)
        trace = run(sched, null_strategy(), seed=1)
        got = {q: [] for q in range(4)}
        for e in trace.events:
            if isinstance(e, DeliverEvent):
                got[e.receiver].extend(e.ids)
        # every receiver got every send exactly once, in send order
        everything = list(range(len(trace.send_events())))
        assert got == dict.fromkeys(range(4), everything)

    def test_sleeper_gets_queued_messages_on_waking(self):
        # process 3 is asleep for rounds 3-5 and awake again at round 6: the
        # round-3 messages reach it in the receive phase it rejoins at
        n, horizon = 4, 8
        awake = []
        for r in range(horizon + 1):
            members = {0, 1, 2} if 3 <= r <= 5 else {0, 1, 2, 3}
            awake.append(frozenset(members))
        sched = Schedule(
            n=n,
            horizon=horizon,
            awake_honest=tuple(awake),
            byzantine=tuple([frozenset()] * (horizon + 1)),
            r_a=None,
            params=params(eta=None, tau=0),
        )
        world = World(sched, null_strategy(), seed=3)
        newest_held = {}
        for r in range(horizon):
            world.step_round(r)
            newest_held[r] = {s: rnd for s, (rnd, _) in world.states[3].votes_seen.items()}
        trace_events, sent = world.events, world.sent
        round3_votes = {
            i
            for e in trace_events if isinstance(e, DeliverEvent) and e.receiver == 0
            for i in e.ids if isinstance(sent[i], VoteMsg) and sent[i].round == 3
        }
        assert round3_votes
        deliveries_to_3 = [
            e for e in trace_events if isinstance(e, DeliverEvent) and e.receiver == 3
        ]
        by_round = {i: e.round for e in deliveries_to_3 for i in e.ids if i in round3_votes}
        # nothing reached the sleeper during rounds 2-4's receive phases; the
        # backlog lands at the round-5 receive phase, entering round 6
        assert by_round and set(by_round.values()) == {5}
        # and the woken process holds those votes when it next acts: its
        # store keeps each sender's newest vote, which was from round 1 while
        # it slept and is the round-5 one of the backlog once it wakes (its
        # own round-2 vote, its last before sleeping, arrives with them)
        assert newest_held[4] == {0: 1, 1: 1, 2: 1, 3: 1}
        assert newest_held[5] == {0: 5, 1: 5, 2: 5, 3: 2}
        # asleep rounds produce no messages
        sends_by_3 = [
            e.round for e in trace_events
            if not isinstance(e, DeliverEvent) and hasattr(e, "msg") and e.msg.sender == 3
        ]
        assert sends_by_3 and not any(3 <= r <= 5 for r in sends_by_3)

    def test_no_message_is_queued_for_a_byzantine_process(self):
        # a Byzantine process never receives again (Byzantine sets only
        # grow), so a queue kept for it would grow to the whole send log
        scenario = load_scenario(Path(__file__).parent.parent / "scenarios" / "prop1_expiring.json")
        sched = build_schedule(scenario)
        world = World(sched, STRATEGIES[scenario.adversary](), scenario.seed)
        deepest = dict.fromkeys(world.pending, 0)
        for r in range(sched.horizon):
            world.step_round(r)
            for q, queue in world.pending.items():
                deepest[q] = max(deepest[q], len(queue))
        byz = sched.byzantine[sched.horizon]
        assert byz == {8, 9}
        assert {q: deepest[q] for q in byz} == {8: 0, 9: 0}
        assert max(depth for q, depth in deepest.items() if q not in byz) == 21

    def test_held_messages_precede_the_log_tail_on_waking(self):
        # process 3 is shown nothing but its own messages in the window
        # round 4, sleeps through the receive phases of rounds 5 and 6 and
        # receives again at round 7: it takes what round 4 held back and
        # then every later send, in send order, as a tuple, while the others
        # get the range of the log's tail; at round 8 it holds nothing back
        # and gets the same range as they do
        n, horizon = 4, 10
        awake = [frozenset({0, 1, 2} if r in (6, 7) else range(n)) for r in range(horizon + 1)]
        sched = Schedule(
            n=n,
            horizon=horizon,
            awake_honest=tuple(awake),
            byzantine=tuple([frozenset()] * (horizon + 1)),
            r_a=3,
            params=params(tau=4, eta=4, pi=1),
        )
        strategy = AdversaryStrategy(
            name="hold_3",
            messages=lambda world, r: [],
            delivery_filter=lambda world, r, q, cand: [] if q == 3 else cand,
        )
        trace = run(sched, strategy, seed=2)
        sends = trace.send_events()
        got = {
            (e.round, e.receiver): e.ids for e in trace.events if isinstance(e, DeliverEvent)
        }
        assert (5, 3) not in got and (6, 3) not in got
        backlog = [i for i, e in enumerate(sends) if 4 <= e.round <= 7 and i not in got[4, 3]]
        assert any(sends[i].msg.sender != 3 for i in got[4, 0] if i not in got[4, 3])
        assert got[7, 3] == tuple(backlog)

        def tail(r):
            return range(*(sum(e.round < rd for e in sends) for rd in (r, r + 1)))

        assert got[7, 0] == got[7, 1] == got[7, 2] == tail(7)
        assert got[8, 0] == got[8, 3] == tail(8)
        assert all(type(got[8, q]) is range for q in range(n))

    def test_corrupted_process_gets_no_deliveries_and_no_queue(self):
        horizon, corrupt_from = 8, 4
        awake = [
            frozenset(range(1, 5) if r >= corrupt_from else range(5)) for r in range(horizon + 1)
        ]
        byz = [frozenset({0} if r >= corrupt_from else ()) for r in range(horizon + 1)]
        sched = Schedule(
            n=5,
            horizon=horizon,
            awake_honest=tuple(awake),
            byzantine=tuple(byz),
            r_a=None,
            params=params(),
        )
        world = World(sched, null_strategy(), seed=1)
        for r in range(horizon):
            world.step_round(r)
            assert bool(world.pending[0]) == (r == corrupt_from - 1), r
        to_0 = [e.round for e in world.events if isinstance(e, DeliverEvent) and e.receiver == 0]
        # its last receive phase is the one before it falls asleep, at the
        # end of round corrupt_from - 2
        assert max(to_0) == corrupt_from - 2

    def test_send_log_keeps_one_copy_of_each_send(self):
        p = params(tau=4, eta=4, pi=1)
        for sched in (sync_faultfree(), constant_schedule(n=5, horizon=10, n_byz=0, params=p, r_a=4)):
            world = World(sched, null_strategy(), seed=2)
            trace = world.run()
            assert all(not held for held in world.held)
            # so the index of a send event names its message in the send log
            assert [e.msg for e in trace.send_events()] == world.sent

    def test_a_message_sent_twice_is_delivered_under_each_send_id(self):
        # one vote object broadcast twice is two sends, and every receiver
        # is delivered both; the trace names each by its own id
        vote = VoteMsg(sender=3, round=1, log=Log((GENESIS,)))
        strategy = AdversaryStrategy(
            name="twice",
            messages=lambda world, r: [vote, vote] if r == 1 else [],
            delivery_filter=lambda world, r, q, cand: cand,
        )
        sched = constant_schedule(n=4, horizon=4, n_byz=1, params=params())
        world = World(sched, strategy, seed=1)
        trace = world.run()
        twice = [i for i, e in enumerate(trace.send_events()) if e.msg is vote]
        assert len(twice) == 2 and world.sent.count(vote) == 2
        deliveries = [e for e in trace.events if isinstance(e, DeliverEvent) and e.round == 1]
        assert len(deliveries) == 3
        assert all(e.ids == range(twice[0] - 3, twice[1] + 1) for e in deliveries)
        lines = trace_lines(trace, load_scenario(SCENARIOS / "sync_faultfree.json"))
        delivered = [json.loads(line) for line in lines
                     if '"deliver"' in line and '"round": 1}' in line]
        assert [(obj["actor"], obj["payload"]) for obj in delivered] == [
            ([0, 1, 2], {"from": twice[0] - 3, "to": twice[1] + 1})
        ]

    def test_async_round_never_delivers_unsent_message(self):
        forged = VoteMsg(sender=4, round=5, log=Log((GENESIS,)))
        strategy = AdversaryStrategy(
            name="forger",
            messages=lambda world, r: [],
            delivery_filter=lambda world, r, q, cand: [*cand, forged],
        )
        p = params(tau=4, eta=4, pi=1)
        sched = constant_schedule(n=5, horizon=10, n_byz=1, params=p, r_a=4)
        world = World(sched, strategy, seed=2)
        world.run()
        assert forged not in world.sent
        assert all(i < len(world.sent) for e in world.events if isinstance(e, DeliverEvent)
                   for i in e.ids)
        assert all(4 not in state.votes_seen for state in world.states.values())

    def test_async_round_with_null_strategy_degenerates_to_sync(self):
        p = params(tau=4, eta=4, pi=1)
        sched = constant_schedule(n=5, horizon=10, n_byz=0, params=p, r_a=4)
        trace = run(sched, null_strategy(), seed=2)
        from sleepy_tob.oracle import Verdict, check_safety_after

        assert check_safety_after(trace, 0).verdict is Verdict.PASS


class TestForgery:
    def test_strategy_forging_honest_sender_aborts(self):
        sched = constant_schedule(
            n=4, horizon=4, n_byz=1, params=params(), r_a=None
        )
        evil = AdversaryStrategy(
            name="forger",
            messages=lambda world, r: [VoteMsg(sender=0, round=r, log=Log())],
            delivery_filter=lambda world, r, q, cand: cand,
        )
        with pytest.raises(ForgeryError):
            run(sched, evil, seed=1)

    def test_strategy_mislabeling_round_aborts(self):
        sched = constant_schedule(n=4, horizon=4, n_byz=1, params=params())
        evil = AdversaryStrategy(
            name="timewarp",
            messages=lambda world, r: [VoteMsg(sender=3, round=r + 3, log=Log())],
            delivery_filter=lambda world, r, q, cand: cand,
        )
        with pytest.raises(ForgeryError):
            run(sched, evil, seed=1)

    @staticmethod
    def proposer(ticket):
        """A strategy whose Byzantine process 3 proposes, in round 0, a log
        of its own for view 1 with the ticket ``ticket(seed)``."""
        log = Log((GENESIS, Value(99, 3, 1)))

        def messages(world, r):
            if r != 0:
                return []
            return [ProposeMsg(sender=3, view=1, log=log, ticket=ticket(world.seed))]

        return AdversaryStrategy("proposer", messages, lambda world, r, q, cand: cand)

    @pytest.mark.parametrize(
        "ticket",
        [
            lambda seed: vrf_eval(seed, 3, 1) ^ 1,
            lambda seed: vrf_eval(seed, 0, 1),
            lambda seed: vrf_eval(seed, 3, 2),
        ],
        ids=["flipped", "other-sender", "other-view"],
    )
    def test_strategy_forging_a_ticket_aborts(self, ticket):
        sched = constant_schedule(n=4, horizon=4, n_byz=1, params=params())
        with pytest.raises(ForgeryError, match="proposal from 3 has a forged ticket for view 1"):
            run(sched, self.proposer(ticket), seed=1)

    def test_strategy_ticket_is_admitted_and_ranked(self):
        # a seed under which the Byzantine ticket is the highest of view 1
        seed = next(s for s in range(1, 100)
                    if max(range(4), key=lambda p: vrf_eval(s, p, 1)) == 3)
        sched = constant_schedule(n=4, horizon=4, n_byz=1, params=params())
        strategy = self.proposer(lambda seed: vrf_eval(seed, 3, 1))
        trace = run(sched, strategy, seed=seed)
        [byz_proposal] = [e.msg for e in trace.propose_sends() if e.msg.sender == 3]
        votes = [e.msg.log for e in trace.vote_sends() if e.round == 1]
        assert votes == [byz_proposal.log] * 3


class TestScheduleValidation:
    def test_overlapping_honest_byzantine_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(
                n=4,
                horizon=2,
                awake_honest=tuple([frozenset({0, 1})] * 3),
                byzantine=tuple([frozenset({1})] * 3),
                r_a=None,
                params=params(),
            ).validate()

    def test_shrinking_byzantine_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(
                n=4,
                horizon=2,
                awake_honest=tuple([frozenset({0})] * 3),
                byzantine=(frozenset({2, 3}), frozenset({2}), frozenset({2})),
                r_a=None,
                params=params(),
            ).validate()

    def test_no_process_rejected(self):
        with pytest.raises(ScheduleError, match="at least 1 process"):
            constant_schedule(n=0, horizon=4, n_byz=0, params=params()).validate()

    def test_nobody_awake_in_any_round_rejected(self):
        # all processes Byzantine, or every honest set empty: nobody runs the protocol
        with pytest.raises(ScheduleError, match="no well-behaved process is awake"):
            constant_schedule(n=3, horizon=4, n_byz=3, params=params()).validate()
        with pytest.raises(ScheduleError, match="no well-behaved process is awake"):
            Schedule(n=3, horizon=4, awake_honest=(frozenset(),) * 5,
                     byzantine=(frozenset(),) * 5, r_a=None, params=params()).validate()


class TestStrategies:
    def test_prop1_needs_two_byzantine(self):
        p = params(tau=4, eta=4, pi=2)
        sched = constant_schedule(n=6, horizon=12, n_byz=1, params=p, r_a=4)
        with pytest.raises(ValueError, match="two Byzantine"):
            World(sched, strategy_prop1(), seed=0)

    def test_prop1_without_window_is_inert(self):
        sched = constant_schedule(n=6, horizon=10, n_byz=2, params=params())
        trace = run(sched, strategy_prop1(), seed=0)
        byz_sends = [e for e in trace.send_events() if e.msg.sender >= 4]
        assert byz_sends == []

    def test_split_decision_without_byzantine_emits_nothing(self):
        p = params(tau=4, eta=4, pi=1)
        sched = constant_schedule(n=6, horizon=10, n_byz=0, params=p, r_a=4)
        trace = run(sched, strategy_split_decision(), seed=0)
        assert all(e.msg.sender < 6 for e in trace.send_events())

    def test_prop1_on_expiring_protocol_trace_has_no_conflicts(self):
        p = params(tau=4, eta=4, pi=2)
        sched = constant_schedule(n=10, horizon=16, n_byz=2, params=p, r_a=4)
        trace = run(sched, strategy_prop1(), seed=7)
        from sleepy_tob.oracle import Verdict, check_async_resilience

        assert check_async_resilience(trace, 4, 2).verdict is Verdict.PASS

    def test_prop1_on_plain_protocol_forces_conflicting_decides(self):
        p = params(tau=0, eta=0, pi=2)
        sched = constant_schedule(n=10, horizon=16, n_byz=2, params=p, r_a=4)
        trace = run(sched, strategy_prop1(), seed=7)
        decides = trace.decide_events()
        from sleepy_tob.core import conflicts

        assert any(
            conflicts(a.log, b.log) for a in decides for b in decides
        )

    def test_prop1_with_three_byzantine_captures_grade1_directly(self):
        # enough injected votes to outweigh each receiver's own vote: every
        # honest receiver grades the adversarial log 1 in the first window
        # instance
        p = params(tau=0, eta=0, pi=2)
        sched = constant_schedule(n=10, horizon=16, n_byz=3, params=p, r_a=4)
        trace = run(sched, strategy_prop1(), seed=7)
        record = trace.ga_records()[5]
        target = next(
            e.msg.log for e in trace.send_events()
            if isinstance(e.msg, VoteMsg) and e.msg.sender >= 7 and e.round == 5
        )
        assert record.receivers
        for q, view in record.receivers.items():
            assert view.output.grade_of(target) == 1


class TestGrowingAdversary:
    def test_corrupted_process_stops_stepping_and_history_remains(self):
        horizon = 8
        corrupt_from = 4
        awake, byz = [], []
        for r in range(horizon + 1):
            if r < corrupt_from:
                awake.append(frozenset(range(5)))
                byz.append(frozenset())
            else:
                awake.append(frozenset(range(1, 5)))
                byz.append(frozenset({0}))
        sched = Schedule(
            n=5,
            horizon=horizon,
            awake_honest=tuple(awake),
            byzantine=tuple(byz),
            r_a=None,
            params=params(),
        )
        trace = run(sched, null_strategy(), seed=1)
        votes_by_0 = [e for e in trace.vote_sends() if e.msg.sender == 0]
        assert votes_by_0 and all(e.round < corrupt_from for e in votes_by_0)


class TestGenerateSchedule:
    def test_output_passes_all_checks(self):
        sched = generate_schedule(
            n=20, horizon=18,
            params=ModelParams(tau=4, eta=4, pi=2, gamma=Fraction(1, 10), beta=THIRD),
            r_a=6, seed=0, n_byz=4,
        )
        assert check_all(sched).all_pass
        sched.validate()

    def test_gamma_zero_awake_sets_never_shrink(self):
        sched = generate_schedule(
            n=12, horizon=14,
            params=ModelParams(tau=3, eta=3, pi=0, gamma=Fraction(0), beta=THIRD),
            r_a=None, seed=3,
        )
        for r in range(sched.horizon):
            assert sched.awake_honest[r] <= sched.awake_honest[r + 1]

    def test_tau_zero_unconstrained_churn_allowed(self):
        sched = generate_schedule(
            n=12, horizon=14,
            params=ModelParams(tau=0, eta=0, pi=0, gamma=Fraction(0), beta=THIRD),
            r_a=None, seed=3,
        )
        assert check_all(sched).all_pass

    def test_gamma_at_beta_rejected(self):
        with pytest.raises(ValueError, match="gamma must be < beta"):
            generate_schedule(
                n=12, horizon=10,
                params=ModelParams(tau=2, eta=2, pi=0, gamma=THIRD, beta=THIRD),
                r_a=None, seed=0,
            )

    def test_window_longer_than_tau_rejected(self):
        with pytest.raises(ValueError):
            generate_schedule(
                n=12, horizon=12,
                params=ModelParams(tau=2, eta=2, pi=3, gamma=Fraction(0), beta=THIRD),
                r_a=4, seed=0,
            )

    def test_infeasible_parameters_raise(self):
        with pytest.raises(InfeasibleScheduleError):
            generate_schedule(
                n=4, horizon=10,
                params=ModelParams(tau=4, eta=4, pi=2, gamma=Fraction(1, 100), beta=THIRD),
                r_a=4, seed=0, n_byz=3, max_attempts=5,
            )

    def test_params_are_carried_unchanged(self):
        # eta=None (never expire) is not replaced by tau
        p = ModelParams(tau=4, eta=None, pi=2, gamma=Fraction(1, 10), beta=THIRD)
        sched = generate_schedule(n=20, horizon=18, params=p, r_a=6, seed=0, n_byz=4)
        assert sched.params is p
        assert sched.pi == 2 and list(sched.window_rounds) == [7, 8]

    @pytest.mark.parametrize(
        "pi, r_a, message",
        [(2, None, "needs a last synchronous round"), (0, 4, "positive length"),
         (2, 8, "end before the final round"), (2, -1, "r_a must be >= 0, got -1")],
        ids=["window-without-r_a", "r_a-without-window", "window-past-horizon",
             "negative-r_a"],
    )
    def test_structural_window_errors_raise_at_once(self, pi, r_a, message):
        p = ModelParams(tau=4, eta=4, pi=pi, gamma=Fraction(1, 10), beta=THIRD)
        with pytest.raises(ScheduleError, match=message):
            generate_schedule(n=20, horizon=10, params=p, r_a=r_a, seed=0, n_byz=4)


def test_schedule_window_length_is_read_from_params():
    sched = constant_schedule(n=6, horizon=10, n_byz=0, params=params(tau=4, eta=4, pi=2), r_a=4)
    assert "pi" not in {f.name for f in dataclasses.fields(Schedule)}
    assert sched.pi == 2 and list(sched.window_rounds) == [5, 6]
