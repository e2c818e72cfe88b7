from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    expand,
    fields_key,
    longest_any,
    merge_inputs,
    reference_grade,
    run_instance,
    sliced_common_prefix,
    sliced_prefixes,
    store_merge,
)
from sleepy_tob.core import (
    EMPTY_LOG,
    Log,
    ProposeMsg,
    Value,
    VoteMsg,
    compatible,
    conflicts,
    is_prefix,
    vrf_eval,
)
from sleepy_tob.ga import (
    ForgeryError,
    GaOutput,
    InitialVoteSet,
    check_adversary_message,
    grade,
    merge_latest,
    tally,
)
from sleepy_tob.oracle import naive_merged_votes, naive_outputs

A = Log((Value(1, 0, 1),))
B = Log((Value(2, 0, 1),))
AX = Log((Value(1, 0, 1), Value(3, 1, 2)))


def vote(sender, log, round=5):
    return VoteMsg(sender=sender, round=round, log=log)


def initial(*msgs):
    return InitialVoteSet(messages=frozenset(msgs))


class TestMergeLatest:
    """``merge_latest`` on the halves ``latest_unexpired`` splits a store
    into, the store folded with ``keep_latest`` (``helpers.store_merge``)."""

    def test_round_vote_supersedes_initial(self):
        merged = store_merge(5, initial(vote(1, A, round=3)), {vote(1, B)})
        assert merged == frozenset({vote(1, B)})

    def test_round_equivocator_dropped_initial_kept(self):
        merged = store_merge(5, initial(vote(1, A, round=3)), {vote(2, B), vote(2, AX)})
        assert merged == frozenset({vote(1, A, round=3)})

    def test_empty_initial_reduces_to_round_votes(self):
        assert merge_latest(InitialVoteSet(), frozenset({vote(1, A)})) == frozenset({vote(1, A)})

    def test_round_equivocator_loses_initial_entry_too(self):
        merged = store_merge(5, initial(vote(2, A, round=3)), {vote(2, B), vote(2, AX)})
        assert merged == frozenset()

    def test_repeated_copies_count_once(self):
        merged = store_merge(5, initial(vote(1, A, round=3)), [vote(2, B), vote(2, B)])
        assert merged == frozenset({vote(1, A, round=3), vote(2, B)})

    def test_initial_set_rejects_duplicate_senders(self):
        with pytest.raises(ValueError):
            initial(vote(1, A, round=2), vote(1, B, round=3))


@settings(max_examples=300)
@given(merge_inputs())
def test_merge_latest_matches_naive_merge(inputs):
    r, init, round_msgs = inputs
    merged = store_merge(r, init, round_msgs)
    assert {m.sender: m.log for m in merged} == naive_merged_votes(init.messages, round_msgs)
    assert len({m.sender for m in merged}) == len(merged)
    assert merged <= init.messages | set(round_msgs)


class TestTally:
    def test_extension_counting(self):
        # the common prefix A is counted, the empty log below it is not
        assert tally({vote(1, AX), vote(2, A)}) == {A: 2, AX: 1}

    def test_unanimous_round_counts_the_voted_log_alone(self):
        assert tally([vote(i, AX) for i in range(3)]) == {AX: 3}

    def test_disjoint_heads(self):
        counts = tally({vote(1, A), vote(2, B)})
        assert counts[A] == 1
        assert counts[B] == 1
        assert counts[EMPTY_LOG] == 2

    def test_worked_split_tally(self):
        # 7 honest split 3/4 across two values, 3 byzantine backing the minority
        b, bp = A, B
        msgs = (
            [vote(i, b) for i in range(3)]
            + [vote(i, bp) for i in range(3, 7)]
            + [vote(i, b) for i in range(7, 10)]
        )
        counts = tally(msgs)
        assert counts[b] == 6
        assert counts[bp] == 4
        assert counts[EMPTY_LOG] == 10


class TestGrade:
    def test_split_round_has_no_grade1_value(self):
        msgs = (
            [vote(i, A) for i in range(3)]
            + [vote(i, B) for i in range(3, 7)]
            + [vote(i, A) for i in range(7, 10)]
        )
        out = grade(msgs)
        # m=10: count(A)=6 <= 20/3, count(B)=4 <= 20/3: both grade 0 only
        assert out.grade_of(A) == 0
        assert out.grade_of(B) == 0
        assert out == GaOutput(EMPTY_LOG, (A, B))

    def test_unanimity_grades_every_prefix(self):
        out = grade([vote(i, AX) for i in range(3)])
        assert out.grade_of(AX) == 1
        assert out.grade_of(A) == 1
        assert out.grade_of(EMPTY_LOG) == 1
        assert out == GaOutput(AX, (AX,))

    def test_empty_tally_empty_output(self):
        assert not grade([])

    def test_longest_any_prefers_grade1_on_ties(self):
        out = grade([vote(1, AX), vote(2, AX), vote(3, B)])
        # m=3: AX has 2 votes (grade 0: 6 > 3, not > 6), B has 1 (no grade)
        assert out.grade_of(AX) == 0
        assert longest_any(out) == AX


@settings(max_examples=300)
@given(merge_inputs())
def test_grade_is_empty_exactly_without_votes_and_else_has_grade1(inputs):
    """The round steps fall back on a member's candidate only for an empty
    output, since every output ``grade`` returns is empty exactly when it
    counted no vote, and otherwise has a grade-1 log under every top."""
    msgs = store_merge(*inputs)
    out = grade(msgs)
    assert bool(out) == bool(msgs)
    assert out.grade1 is not None or not out.tops
    assert all(is_prefix(out.grade1, top) for top in out.tops)


@st.composite
def vote_sets(draw):
    n = draw(st.integers(1, 9))
    values = [Value(id=i, proposer=0, view=0) for i in range(3)]
    msgs = []
    for sender in range(n):
        ids = draw(st.lists(st.integers(0, 2), max_size=4))
        msgs.append(vote(sender, Log(tuple(values[i] for i in ids))))
    return msgs


def per_message_tally(msgs):
    # prefixes from slices, so the reference shares no log-tree walk with tally
    counts = {}
    for msg in msgs:
        for p in sliced_prefixes(msg.log):
            counts[p] = counts.get(p, 0) + 1
    return counts


@st.composite
def repeated_vote_lists(draw):
    """Votes drawn from a pool of at most three logs, so many senders share
    a log."""
    values = [Value(id=i, proposer=0, view=0) for i in range(3)]
    pool = draw(
        st.lists(
            st.lists(st.integers(0, 2), max_size=4).map(
                lambda ids: Log(tuple(values[i] for i in ids))
            ),
            min_size=1,
            max_size=3,
        )
    )
    picks = draw(st.lists(st.sampled_from(pool), max_size=12))
    return [vote(sender, log) for sender, log in enumerate(picks)]


@given(repeated_vote_lists())
def test_grouped_tally_matches_per_message_expansion(msgs):
    # the expansion restricted to the logs at or above the common prefix
    expected = per_message_tally(msgs)
    if msgs:
        base = len(sliced_common_prefix(m.log for m in msgs))
        expected = {log: count for log, count in expected.items() if len(log) >= base}
    assert tally(msgs) == expected


@given(vote_sets())
def test_grade_thresholds_match_fraction_oracle(msgs):
    m = len(msgs)
    out = grade(msgs)
    for log, count in per_message_tally(msgs).items():
        expected = None
        if Fraction(count) > Fraction(2 * m, 3):
            expected = 1
        elif Fraction(count) > Fraction(m, 3):
            expected = 0
        assert out.grade_of(log) == expected


@given(vote_sets())
def test_grade1_logs_form_a_chain(msgs):
    g1 = [log for log, g in expand(grade(msgs)).items() if g == 1]
    for a in g1:
        for b in g1:
            assert compatible(a, b)


def full_tie_break_longest_grade1(out):
    """Longest grade-1 log, ties broken by value ids."""
    best = None
    for log in (log for log, g in expand(out).items() if g == 1):
        if best is None or (len(log), fields_key(log)) > (len(best), fields_key(best)):
            best = log
    return best


def full_tie_break_longest_any(out):
    """Longest log, equal lengths preferring grade 1, then value ids."""
    best = None
    for log, g in expand(out).items():
        key = (-len(log), -g, fields_key(log))
        if best is None or key < best[:3]:
            best = (*key, log)
    return None if best is None else best[3]


@settings(max_examples=300)
@given(vote_sets())
def test_longest_outputs_need_no_grade_tie_break(msgs):
    # the selections are the frontier's; the references read its expansion
    out = grade(msgs)
    assert out.grade1 == full_tie_break_longest_grade1(out)
    assert longest_any(out) == full_tie_break_longest_any(out)


class TestGaOutput:
    def test_equality_and_repr_follow_the_frontier(self):
        out = GaOutput(EMPTY_LOG, (AX, B))
        assert out == GaOutput(Log(()), (AX, B))
        assert out != GaOutput(EMPTY_LOG, (AX,))
        assert out != GaOutput(A, (AX, B))
        assert repr(out) == f"GaOutput(grade1={EMPTY_LOG!r}, tops={(AX, B)!r})"

    def test_empty_output_selects_nothing(self):
        out = GaOutput()
        assert not out
        assert expand(out) == {}
        assert out.grade_of(EMPTY_LOG) is None
        assert out.grade1 is None
        assert out.tops == ()

    def test_grades_is_a_fresh_expansion(self):
        out = GaOutput(A, (AX, B))
        expand(out).clear()
        assert expand(out) == {EMPTY_LOG: 1, A: 1, AX: 0, B: 0}
        assert [out.grade_of(log) for log in (A, AX, B, Log((B.values[0], AX.values[1])))] == [
            1, 0, 0, None,
        ]


BRANCHES = [Value(id=i, proposer=0, view=1) for i in range(4)]
branch_logs = st.lists(st.integers(0, 3), max_size=3).map(
    lambda ids: Log(tuple(BRANCHES[i] for i in ids))
)
T0, T1, T2 = (Log((v,)) for v in BRANCHES[:3])


@settings(max_examples=500)
@given(st.lists(st.tuples(st.integers(0, 11), branch_logs), max_size=14))
@example([])
@example([(0, T0), (1, T1), (2, T1)])  # m = 3: one vote is not above a third
@example([(s, T0) for s in range(4)] + [(4, T1), (5, T1)])  # 3 * 4 == 2 * 6: grade 0
@example([(0, T0), (1, T0), (2, T1), (3, T1), (4, T2), (5, T2)])  # three branches
@example([(0, T0), (0, T1), (1, T1), (2, T2)])  # sender 0 equivocates
def test_frontier_closure_matches_reference_and_fraction_oracle(votes):
    """Round votes over four branches, senders voting two logs among them:
    the merged set's frontier, closed under prefixes, is the verbatim
    reference's ``grades`` and the exact-fraction oracle's grading."""
    raw = [vote(s, log) for s, log in votes]
    merged = store_merge(5, InitialVoteSet(), raw)
    out, ref = grade(merged), reference_grade(merged)
    assert expand(out) == ref.grades == naive_outputs(naive_merged_votes((), raw))
    assert bool(out) == bool(ref)
    assert out.grade1 == ref.longest_grade1()
    assert longest_any(out) == ref.longest_any()
    assert len(out.tops) < 2 or len(out.tops) == 2 and conflicts(*out.tops)
    assert all(is_prefix(out.grade1, top) for top in out.tops)
    assert list(out.tops) == sorted(out.tops, key=lambda log: (-len(log), fields_key(log)))


@given(vote_sets())
def test_bounded_divergence_structural(msgs):
    out = grade(msgs)
    assert len(out.tops) <= 2
    logs = list(expand(out))
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            for k in range(j + 1, len(logs)):
                assert not (
                    conflicts(logs[i], logs[j])
                    and conflicts(logs[i], logs[k])
                    and conflicts(logs[j], logs[k])
                )


class TestRunInstance:
    def test_synchronous_validity(self):
        # all honest inputs extend A; every receiver outputs (A, 1)
        inputs = {i: AX if i % 2 else A for i in range(5)}
        record = run_instance(round=3, inputs=inputs)
        for view in record.receivers.values():
            assert view.output.grade_of(A) == 1

    def test_adversarial_capture_of_voteless_receivers(self):
        # receivers that sent nothing see only byzantine votes and grade them 1
        inputs = {i: A for i in range(3)}
        byz = [vote(7, B, round=3), vote(8, B, round=3), vote(9, B, round=3)]
        record = run_instance(
            round=3,
            inputs=inputs,
            byz_msgs=byz,
            receivers=[4, 5],
            byzantine={7, 8, 9},
            delivery=lambda q, msgs: [m for m in msgs if m.sender >= 7],
        )
        for q in (4, 5):
            assert record.receivers[q].output.grade_of(B) == 1

    def test_clique_from_initial_sets_under_asynchrony(self):
        # carried-over votes for A from 5 senders dominate an empty round
        old = [vote(i, AX if i % 2 else A, round=2) for i in range(5)]
        sets = {q: InitialVoteSet(messages=frozenset(old)) for q in (0, 1)}
        record = run_instance(
            round=3,
            inputs={},
            byz_msgs=[vote(9, B, round=3)],
            initial_sets=sets,
            byzantine={9},
            delivery=lambda q, msgs: [],
        )
        for q in (0, 1):
            assert record.receivers[q].output.grade_of(A) == 1

    def test_forged_byzantine_sender_rejected(self):
        with pytest.raises(ForgeryError):
            run_instance(
                round=3,
                inputs={0: A},
                byz_msgs=[vote(0, B, round=3)],
                byzantine={9},
            )

    def test_byzantine_vote_from_an_input_sender_rejected(self):
        with pytest.raises(ForgeryError, match="from 0, which has an input log"):
            run_instance(round=3, inputs={0: A}, byz_msgs=[vote(0, B, round=3)], byzantine={0})

    def test_byzantine_vote_for_another_round_rejected(self):
        with pytest.raises(ForgeryError, match="claims round 2 during round 3"):
            run_instance(round=3, inputs={0: A}, byz_msgs=[vote(9, B, round=2)], byzantine={9})

    def test_own_vote_always_delivered(self):
        # the filter drops every sent vote and picks one that was never sent
        forged = vote(5, AX, round=3)
        record = run_instance(
            round=3,
            inputs={0: A, 1: B},
            delivery=lambda q, msgs: [forged],
        )
        assert record.receivers[0].output.grade_of(A) == 1
        assert record.receivers[1].output.grade_of(B) == 1
        for view in record.receivers.values():
            assert forged not in view.received
            assert view.m == 1

    def test_initial_set_must_be_older_than_round(self):
        with pytest.raises(ValueError):
            run_instance(
                round=3,
                inputs={0: A},
                initial_sets={0: initial(vote(1, A, round=3))},
            )


class TestCheckAdversaryMessage:
    """The one admission check ``World`` runs on every strategy message."""

    SEED = 11

    def proposal(self, sender, view, ticket=None):
        if ticket is None:
            ticket = vrf_eval(self.SEED, sender, view)
        return ProposeMsg(sender=sender, view=view, log=A, ticket=ticket)

    def test_genuine_ticket_passes(self):
        check_adversary_message(self.proposal(3, 2), 3, {3}, self.SEED)

    def test_forged_ticket_rejected(self):
        forged = self.proposal(3, 2, ticket=vrf_eval(self.SEED, 3, 2) ^ 1)
        with pytest.raises(ForgeryError, match="proposal from 3 has a forged ticket for view 2"):
            check_adversary_message(forged, 3, {3}, self.SEED)
        with pytest.raises(ForgeryError, match="forged ticket"):
            check_adversary_message(self.proposal(3, 2), 3, {3}, self.SEED + 1)

    def test_sender_is_checked_before_the_ticket(self):
        forged = self.proposal(3, 2, ticket=0)
        with pytest.raises(ForgeryError, match="from 3, not Byzantine in round 3"):
            check_adversary_message(forged, 3, {4}, self.SEED)

    def test_vote_for_another_round_fails_first(self):
        check_adversary_message(vote(3, A, round=3), 3, {3}, self.SEED)
        with pytest.raises(ForgeryError, match="claims round 2 during round 3"):
            check_adversary_message(vote(3, A, round=2), 3, {3}, self.SEED)
        with pytest.raises(ForgeryError, match="from 3, not Byzantine in round 3"):
            check_adversary_message(vote(3, A, round=2), 3, set(), self.SEED)
