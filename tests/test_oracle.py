import itertools
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st
from helpers import expand, frontier, run_instance
from test_cli import campaign_traces

from sleepy_tob.cli import load_scenario, run_scenario
from sleepy_tob.core import EMPTY_LOG, Log, Value, VoteMsg, conflicts, is_chain
from sleepy_tob.ga import (
    GaOutput,
    GaRecord,
    InitialVoteSet,
    ReceiverView,
)
from sleepy_tob.model_checks import ModelParams
from sleepy_tob.oracle import (
    Verdict,
    check_async_resilience,
    check_ga_properties,
    check_healing,
    check_liveness_after,
    check_safety_after,
    check_trace_wellformed,
    first_full_view_after,
    naive_record_outputs,
)
from sleepy_tob.world import (
    DecideEvent,
    DeliverEvent,
    Schedule,
    SendEvent,
    Trace,
    constant_schedule,
    null_strategy,
    run,
    strategy_prop1,
)

THIRD = Fraction(1, 3)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
A = Log((Value(1, 0, 1),))
AX = Log((Value(1, 0, 1), Value(3, 1, 2)))
B = Log((Value(2, 0, 1),))
C = Log((Value(4, 0, 1),))


def params(tau=2, eta=2, pi=0, gamma="0"):
    return ModelParams(tau=tau, eta=eta, pi=pi, gamma=Fraction(gamma), beta=THIRD)


def faultfree_trace(n=6, horizon=14, eta=2, seed=5):
    sched = constant_schedule(n=n, horizon=horizon, n_byz=0, params=params(tau=eta, eta=eta))
    return run(sched, null_strategy(), seed=seed)


def prop1_trace(eta, seed=7, horizon=16):
    p = params(tau=eta, eta=eta, pi=2) if eta else ModelParams(
        tau=0, eta=0, pi=2, gamma=Fraction(0), beta=THIRD
    )
    sched = constant_schedule(n=10, horizon=horizon, n_byz=2, params=p, r_a=4)
    return run(sched, strategy_prop1(), seed=seed)


class TestGaProperties:
    def test_unanimous_sync_all_pass(self):
        record = run_instance(round=3, inputs={i: AX for i in range(5)})
        reports = check_ga_properties(record)
        for name in (
            "graded_consistency",
            "integrity",
            "validity",
            "uniqueness",
            "bounded_divergence",
        ):
            assert reports[name].verdict is Verdict.PASS, name

    def test_async_record_marked_not_applicable(self):
        record = run_instance(
            round=3,
            inputs={i: A for i in range(3)},
            byz_msgs=[VoteMsg(s, 3, B) for s in (7, 8, 9)],
            byzantine={7, 8, 9},
            receivers=[4, 5],
            delivery=lambda q, msgs: [m for m in msgs if m.sender >= 7],
        )
        reports = check_ga_properties(record)
        assert reports["validity"].verdict is Verdict.NOT_APPLICABLE
        assert reports["clique_validity"].verdict is Verdict.NOT_APPLICABLE
        assert all(r.verdict is not Verdict.FAIL for r in reports.values())

    def test_clique_validity_applicable_and_passes(self):
        # five senders for extensions of A; two of them also receive with
        # initial sets covering the whole clique; delivery suppressed
        old = [VoteMsg(s, 2, AX if s % 2 else A) for s in range(5)]
        sets = {
            q: InitialVoteSet(messages=frozenset(old)) for q in (0, 1)
        }
        record = run_instance(
            round=3,
            inputs={s: (AX if s % 2 else A) for s in range(5)},
            byz_msgs=[VoteMsg(9, 3, B)],
            byzantine={9},
            initial_sets=sets,
            receivers=[0, 1],
            delivery=lambda q, msgs: [],
        )
        reports = check_ga_properties(record)
        assert reports["clique_validity"].verdict is Verdict.PASS

    def test_naive_tally_matches_module_outputs(self):
        rng = random.Random(0)
        vs = [Value(i, 0, 0) for i in range(3)]
        for _ in range(200):
            n = rng.randint(1, 8)
            inputs = {}
            for s in range(n):
                ids = [rng.randrange(3) for _ in range(rng.randint(0, 4))]
                inputs[s] = Log(tuple(vs[i] for i in ids))
            record = run_instance(round=2, inputs=inputs)
            for q, view in record.receivers.items():
                assert naive_record_outputs(record, q) == expand(view.output)


def hand_built_record(outputs):
    """Synchronous record with quorum (every receiver is an awake honest
    sender, no Byzantine or initial senders) whose receivers output the given
    frontiers, whatever their inputs would have produced."""
    return GaRecord(
        round=3,
        synchronous=True,
        inputs={q: AX for q in outputs},
        byzantine=frozenset(),
        receivers={
            q: ReceiverView(
                initial=InitialVoteSet(),
                received=frozenset(),
                output=output,
                m=len(outputs),
            )
            for q, output in outputs.items()
        },
    )


class TestGaPropertyWitnesses:
    """Each FAIL names the violation the deciding test finds on frontiers:
    the first receiver missing another's ``grade1``, the first conflicting
    pair of ``grade1`` logs in record order, and the first receiver whose
    output is no frontier of at most two branches, with the logs showing
    it."""

    def test_graded_consistency_witness(self):
        record = hand_built_record(
            {
                0: frontier({AX: 1}),
                1: frontier({A: 1, AX: 0}),
                2: frontier({EMPTY_LOG: 1}),
            }
        )
        reports = check_ga_properties(record)
        assert reports["graded_consistency"].verdict is Verdict.FAIL
        # receiver 0's grade1 AX, though its prefix A is missing at 2 too
        assert reports["graded_consistency"].witness == {
            "receiver": 0,
            "log": repr(AX),
            "missing_at": 2,
        }
        assert reports["uniqueness"].verdict is Verdict.PASS
        assert reports["bounded_divergence"].verdict is Verdict.PASS

    def test_uniqueness_witness(self):
        record = hand_built_record(
            {
                0: frontier({A: 1, B: 0}),
                1: frontier({B: 1, A: 0}),
                2: frontier({EMPTY_LOG: 1, A: 0, B: 0}),
            }
        )
        reports = check_ga_properties(record)
        assert reports["uniqueness"].verdict is Verdict.FAIL
        assert reports["uniqueness"].witness == {
            "receiver_a": 0,
            "log_a": repr(A),
            "receiver_b": 1,
            "log_b": repr(B),
        }
        assert reports["graded_consistency"].verdict is Verdict.PASS
        assert reports["bounded_divergence"].verdict is Verdict.PASS

    def test_uniqueness_witness_is_the_first_pair_in_record_order(self):
        # B extended is longer than A, and still named second
        bx = Log((*B.values, Value(5, 1, 2)))
        record = hand_built_record({0: frontier({A: 1}), 1: frontier({A: 0, bx: 1})})
        assert check_ga_properties(record)["uniqueness"].witness == {
            "receiver_a": 0,
            "log_a": repr(A),
            "receiver_b": 1,
            "log_b": repr(bx),
        }

    def test_bounded_divergence_witness(self):
        record = hand_built_record(
            {
                0: frontier({EMPTY_LOG: 1, A: 0, B: 0}),
                1: frontier({EMPTY_LOG: 1, A: 0, AX: 0, B: 0, C: 0}),
                2: frontier({EMPTY_LOG: 1, A: 0, B: 0, C: 0}),
            }
        )
        assert record.receivers[1].output.tops == (AX, B, C)
        reports = check_ga_properties(record)
        assert reports["bounded_divergence"].verdict is Verdict.FAIL
        assert reports["bounded_divergence"].witness == {
            "receiver": 1,
            "logs": [repr(AX), repr(B), repr(C)],
        }
        assert reports["graded_consistency"].verdict is Verdict.PASS
        assert reports["uniqueness"].verdict is Verdict.PASS

    def test_three_conflicting_tops_fail_bounded_divergence(self):
        record = hand_built_record({0: frontier({EMPTY_LOG: 1}), 1: GaOutput(EMPTY_LOG, (A, B, C))})
        report = check_ga_properties(record)["bounded_divergence"]
        assert report.verdict is Verdict.FAIL
        assert report.witness == {"receiver": 1, "logs": [repr(A), repr(B), repr(C)]}

    def test_malformed_frontiers_fail_bounded_divergence(self):
        # two compatible tops, a grade1 under no top, and one with no tops
        for output, logs in [
            (GaOutput(EMPTY_LOG, (AX, A)), [AX, A]),
            (GaOutput(B, (AX,)), [B, AX]),
            (GaOutput(A, ()), [A]),
        ]:
            record = hand_built_record({0: frontier({A: 1}), 1: output})
            report = check_ga_properties(record)["bounded_divergence"]
            assert report.verdict is Verdict.FAIL, output
            assert report.witness == {"receiver": 1, "logs": [repr(lam) for lam in logs]}


@st.composite
def hand_built_outputs(draw):
    """One to three receivers, each grading a few logs drawn from a pool of
    seven that holds chains and conflicts, its grade-1 logs a chain."""
    pool = [
        EMPTY_LOG, A, AX, B, C,
        Log((Value(1, 0, 1), Value(5, 1, 2))),
        Log((Value(2, 0, 1), Value(6, 1, 2))),
    ]
    receivers = draw(st.integers(1, 3))
    grades = st.dictionaries(st.sampled_from(pool), st.integers(0, 1), max_size=5).filter(
        lambda g: is_chain(lam for lam, v in g.items() if v == 1)
    )
    return {q: frontier(draw(grades)) for q in range(receivers)}


@given(hand_built_outputs())
def test_structural_verdicts_match_brute_force(outputs):
    # brute force over every graded log: the frontiers closed under prefixes
    graded = {q: expand(out) for q, out in outputs.items()}
    reports = check_ga_properties(hand_built_record(outputs))
    grade1 = [lam for g in graded.values() for lam, v in g.items() if v == 1]
    consistent = all(lam in g for lam in grade1 for g in graded.values())
    unique = not any(conflicts(a, b) for a, b in itertools.combinations(grade1, 2))
    bounded = not any(
        conflicts(a, b) and conflicts(a, c) and conflicts(b, c)
        for g in graded.values()
        for a, b, c in itertools.combinations(g, 3)
    )
    for name, holds in [
        ("graded_consistency", consistent),
        ("uniqueness", unique),
        ("bounded_divergence", bounded),
    ]:
        assert reports[name].verdict is (Verdict.PASS if holds else Verdict.FAIL), name
        assert (reports[name].witness is None) == holds, name

    # every witness is a real violation
    log_of = {repr(lam): lam for g in graded.values() for lam in g}
    if not consistent:
        w = reports["graded_consistency"].witness
        assert graded[w["receiver"]][log_of[w["log"]]] == 1
        assert w["log"] not in map(repr, graded[w["missing_at"]])
    if not unique:
        w = reports["uniqueness"].witness
        la, lb = log_of[w["log_a"]], log_of[w["log_b"]]
        assert graded[w["receiver_a"]][la] == graded[w["receiver_b"]][lb] == 1
        assert conflicts(la, lb)
    if not bounded:
        w = reports["bounded_divergence"].witness
        a, b, c = (log_of[r] for r in w["logs"])
        assert {a, b, c} <= graded[w["receiver"]].keys()
        assert conflicts(a, b) and conflicts(a, c) and conflicts(b, c)


class TestSafety:
    def test_faultfree_pass(self):
        assert check_safety_after(faultfree_trace(), 0).verdict is Verdict.PASS

    def test_plain_protocol_under_attack_fails_with_witness(self):
        report = check_safety_after(prop1_trace(eta=0), 0)
        assert report.verdict is Verdict.FAIL
        assert report.witness is not None
        assert report.witness["log_a"] != report.witness["log_b"]

    def test_same_run_passes_after_healing_round(self):
        trace = prop1_trace(eta=0)
        r_heal = 2 * first_full_view_after(6)
        assert check_safety_after(trace, r_heal).verdict is Verdict.PASS


class TestLiveness:
    def test_faultfree_window12_pass(self):
        assert check_liveness_after(faultfree_trace(), 0, 12).verdict is Verdict.PASS

    def test_short_horizon_inconclusive(self):
        assert (
            check_liveness_after(faultfree_trace(horizon=6), 0, 12).verdict
            is Verdict.INCONCLUSIVE
        )

    def test_stalled_run_fails_liveness(self):
        # participation drop past the quorum margin: values introduced after
        # the drop cannot be delivered inside the window
        horizon = 12
        awake = [
            frozenset(range(12)) if r <= 4 else frozenset(range(7))
            for r in range(horizon + 1)
        ]
        sched = Schedule(
            n=12,
            horizon=horizon,
            awake_honest=tuple(awake),
            byzantine=tuple([frozenset()] * (horizon + 1)),
            r_a=None,
            params=params(tau=4, eta=4),
        )
        trace = run(sched, null_strategy(), seed=2)
        report = check_liveness_after(trace, 4, 6)
        assert report.verdict is Verdict.FAIL

    def test_no_continuously_awake_process_inconclusive(self):
        trace = faultfree_trace()
        # measure over a window that nobody spans: impossible here, so instead
        # check the empty-steady-set branch via a schedule with total churn
        horizon = 13
        awake = [frozenset({r % 3}) for r in range(horizon + 1)]
        sched = Schedule(
            n=3,
            horizon=horizon,
            awake_honest=tuple(awake),
            byzantine=tuple([frozenset()] * (horizon + 1)),
            r_a=None,
            params=params(tau=0, eta=0),
        )
        t = run(sched, null_strategy(), seed=0)
        assert check_liveness_after(t, 0, 12).verdict is Verdict.INCONCLUSIVE


class TestResilienceAndHealing:
    def test_plain_protocol_fails_resilience(self):
        assert check_async_resilience(prop1_trace(eta=0), 4, 2).verdict is Verdict.FAIL

    def test_expiring_protocol_passes_resilience(self):
        assert check_async_resilience(prop1_trace(eta=4), 4, 2).verdict is Verdict.PASS

    def test_no_window_trivially_passes(self):
        assert check_async_resilience(faultfree_trace(), 4, 0).verdict is Verdict.PASS

    def test_both_protocols_heal(self):
        assert check_healing(prop1_trace(eta=0), 6, liveness_window=8).verdict is Verdict.PASS
        assert check_healing(prop1_trace(eta=4), 6, liveness_window=8).verdict is Verdict.PASS

    def test_trace_ending_inside_window_inconclusive(self):
        trace = prop1_trace(eta=4, horizon=8)
        assert check_healing(trace, 6, liveness_window=8).verdict is Verdict.INCONCLUSIVE

    def test_grace_for_a_process_asleep_at_r_a_ends_one_round_after_the_window(self):
        # window [4, 5] after r_a = 3; process 2 sleeps through r_a, so its
        # conflicting decision is excused up to round r_a + pi + 1 = 6 only
        horizon = 10
        sched = Schedule(
            n=4,
            horizon=horizon,
            awake_honest=(frozenset({0, 1}),) * 4 + (frozenset({0, 1, 2}),) * (horizon - 3),
            byzantine=(frozenset({3}),) * (horizon + 1),
            r_a=3,
            params=params(tau=3, eta=3, pi=2),
        )
        sched.validate()

        def resilience(late_round, pids=(2,)):
            events = (DecideEvent(3, (0,), A), DecideEvent(late_round, pids, B))
            return check_async_resilience(Trace(sched, "none", events), 3, 2)

        assert resilience(6).verdict is Verdict.PASS
        report = resilience(7)
        assert report.verdict is Verdict.FAIL
        assert report.witness == {
            "process": 2, "round": 7, "log": repr(B), "conflicts_with": repr(A)
        }
        # in the grace rounds a cohort's witness is its first member awake
        # at r_a; after them, its first member
        assert resilience(6, (2, 1, 0)).witness["process"] == 1
        assert resilience(7, (2, 1, 0)).witness["process"] == 2


def test_trace_wellformed():
    assert check_trace_wellformed(faultfree_trace()).verdict is Verdict.PASS


def test_shipped_and_campaign_traces_are_wellformed():
    # their windows hold messages back, so some deliveries are tuples of
    # held ids followed by the log's tail
    traces = [run_scenario(load_scenario(path))[0] for path in sorted(SCENARIOS.glob("*.json"))]
    assert len(traces) == 6
    traces += campaign_traces()
    released = 0
    for trace in traces:
        assert check_trace_wellformed(trace).verdict is Verdict.PASS
        window = trace.schedule.window_rounds
        released += any(type(e.ids) is tuple for e in trace.events
                        if isinstance(e, DeliverEvent) and e.round not in window)
        assert all(len(e.receivers) == 1 for e in trace.events
                   if isinstance(e, DeliverEvent) and type(e.ids) is tuple)
    assert released


class TestTraceWellformedFailures:
    def hand_trace(self, *events):
        sched = constant_schedule(n=3, horizon=4, n_byz=0, params=params())
        return Trace(sched, "none", events)

    @staticmethod
    def votes(r, first, senders):
        return SendEvent(r, first, senders, A, None, False, ())

    def test_unsent_vote_in_a_batch_fails_with_witness(self):
        trace = self.hand_trace(
            self.votes(1, 0, (0,)),
            DeliverEvent(1, (2,), (0,)),
            DeliverEvent(1, (0,), (0, 1)),
        )
        report = check_trace_wellformed(trace)
        assert report.verdict is Verdict.FAIL
        assert report.witness == {"round": 1, "receiver": 0, "send": 1}

    def test_delivery_before_its_send_fails(self):
        trace = self.hand_trace(DeliverEvent(0, (1,), range(1)), self.votes(1, 0, (0,)))
        report = check_trace_wellformed(trace)
        assert report.verdict is Verdict.FAIL
        assert report.witness == {"round": 0, "receiver": 1, "send": 0}

    def test_negative_send_id_fails(self):
        trace = self.hand_trace(self.votes(1, 0, (0,)), DeliverEvent(1, (2,), (0, -1)))
        report = check_trace_wellformed(trace)
        assert report.verdict is Verdict.FAIL
        assert report.witness == {"round": 1, "receiver": 2, "send": -1}

    def test_every_member_of_a_cohort_send_counts(self):
        # three voters and a proposal run of two take ids 0-4: a range of
        # them all is well formed, and one past the last member is not
        proposals = SendEvent(2, 3, (0, 1), A, 2, True, (5, 6))
        sent = (self.votes(1, 0, (0, 1, 2)), proposals)
        assert check_trace_wellformed(
            self.hand_trace(*sent, DeliverEvent(2, (0, 1, 2), range(5)))).verdict is Verdict.PASS
        report = check_trace_wellformed(
            self.hand_trace(*sent, DeliverEvent(2, (1, 2), range(6))))
        assert report.verdict is Verdict.FAIL
        assert report.witness == {"round": 2, "receiver": 1, "send": 5}
