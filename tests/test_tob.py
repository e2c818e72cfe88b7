import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    fields_key,
    frontier,
    longest_any,
    reference_step_round1,
    reference_step_round2,
)
from sleepy_tob.core import (
    EMPTY_LOG,
    GENESIS,
    Log,
    ProposeMsg,
    Value,
    VoteMsg,
    compatible,
    is_chain,
    is_prefix,
    vrf_eval,
)
from sleepy_tob.ga import GaOutput
from sleepy_tob.tob import (
    Phase,
    ProcessState,
    ViewClock,
    latest_unexpired,
    round1_vote_log,
    step_round1,
    step_round2,
    step_view0,
)

A = Log((Value(1, 0, 1),))
AX = Log((Value(1, 0, 1), Value(3, 1, 2)))
B = Log((Value(2, 0, 1),))


SEED = 11


def state(pid=0, **kw):
    return ProcessState(pid=pid, **kw)


class TestViewClock:
    def test_view0_is_round0(self):
        assert ViewClock(0).view == 0
        assert ViewClock(0).phase is Phase.VIEW0

    @pytest.mark.parametrize("view", [1, 2, 3, 7])
    def test_views_span_two_rounds(self, view):
        assert ViewClock(2 * view - 1).view == view
        assert ViewClock(2 * view - 1).phase is Phase.ROUND1
        assert ViewClock(2 * view).view == view
        assert ViewClock(2 * view).phase is Phase.ROUND2


def absorbed(*votes):
    """A process store holding ``votes``, absorbed in the given order."""
    st_ = state(pid=9)
    for sender, rnd, log in votes:
        st_.absorb(VoteMsg(sender, rnd, log))
    return st_.votes_seen


class TestLatestUnexpired:
    def test_newer_vote_wins(self):
        store = absorbed((1, 3, A), (1, 5, B))
        initial, current = latest_unexpired(store, 5, 2)
        assert current == frozenset({VoteMsg(1, 5, B)})
        assert initial.messages == frozenset()

    def test_expired_vote_dropped(self):
        store = absorbed((1, 2, A))
        initial, current = latest_unexpired(store, 5, 2)
        assert initial.messages == frozenset()
        assert current == frozenset()

    def test_vote_at_window_edge_kept(self):
        store = absorbed((1, 3, A))
        initial, current = latest_unexpired(store, 5, 2)
        assert initial.messages == frozenset({VoteMsg(1, 3, A)})
        assert current == frozenset()

    def test_eta_zero_keeps_only_current_round(self):
        store = absorbed((1, 4, A), (2, 5, B))
        initial, current = latest_unexpired(store, 5, 0)
        assert initial.messages == frozenset()
        assert current == frozenset({VoteMsg(2, 5, B)})

    def test_equivocation_at_latest_round_voids_sender(self):
        store = absorbed((1, 3, A), (1, 4, A), (1, 4, B))
        initial, current = latest_unexpired(store, 5, 3)
        # the round-4 equivocation is this sender's latest message: dropped,
        # with no fallback to the older clean vote
        assert initial.messages == frozenset()

    def test_infinite_window(self):
        store = absorbed((1, 0, A))
        initial, current = latest_unexpired(store, 9, None)
        assert initial.messages == frozenset({VoteMsg(1, 0, A)})

    def test_returns_the_stored_messages(self):
        old, new = VoteMsg(1, 3, A), VoteMsg(2, 5, B)
        st_ = state(pid=9)
        st_.absorb(old)
        st_.absorb(new)
        initial, current = latest_unexpired(st_.votes_seen, 5, 4)
        assert [m is old for m in initial.messages] == [True]
        assert [m is new for m in current] == [True]


class TestAbsorb:
    def test_vote_equivocation_collapses(self):
        st = state()
        st.absorb(VoteMsg(1, 4, A))
        st.absorb(VoteMsg(1, 4, B))
        assert st.votes_seen[1] == (4, None)
        st.absorb(VoteMsg(1, 4, A))
        assert st.votes_seen[1] == (4, None)

    def test_duplicate_vote_is_not_equivocation(self):
        st = state()
        st.absorb(VoteMsg(1, 4, A))
        st.absorb(VoteMsg(1, 4, A))
        assert st.votes_seen[1] == (4, VoteMsg(1, 4, A))

    def test_later_round_replaces_even_an_equivocation(self):
        st = state()
        st.absorb(VoteMsg(1, 4, A))
        st.absorb(VoteMsg(1, 4, B))
        st.absorb(VoteMsg(1, 6, AX))
        assert st.votes_seen == {1: (6, VoteMsg(1, 6, AX))}

    def test_late_older_vote_changes_nothing(self):
        st = state()
        st.absorb(VoteMsg(1, 6, A))
        st.absorb(VoteMsg(1, 4, B))
        st.absorb(VoteMsg(1, 4, A))
        assert st.votes_seen == {1: (6, VoteMsg(1, 6, A))}


_EQUIVOCATED = object()


def reference_latest_unexpired(arrivals, r, eta):
    """Brute-force reference: keep every sender's log per send round (or a
    marker where two logs disagree), then scan back from round ``r`` to the
    window start for each sender's newest round."""
    by_sender: dict[int, dict[int, object]] = {}
    for msg in arrivals:
        by_round = by_sender.setdefault(msg.sender, {})
        prior = by_round.get(msg.round)
        if prior is None:
            by_round[msg.round] = msg.log
        elif prior is not _EQUIVOCATED and prior != msg.log:
            by_round[msg.round] = _EQUIVOCATED
    lo = 0 if eta is None else max(0, r - eta)
    initial, current = set(), set()
    for sender, by_round in by_sender.items():
        for past in range(r, lo - 1, -1):
            entry = by_round.get(past)
            if entry is None:
                continue
            if entry is not _EQUIVOCATED:
                (current if past == r else initial).add(VoteMsg(sender, past, entry))
            break
    return frozenset(initial), frozenset(current)


@st.composite
def receive_phases(draw):
    """Per round r, the votes arriving at its receive phase: any send round
    up to r, in any order, so late older votes, duplicates and
    equivocations all occur."""
    horizon = draw(st.integers(1, 7))
    return [
        draw(
            st.lists(
                st.builds(
                    VoteMsg,
                    st.integers(0, 3),
                    st.integers(0, r),
                    st.sampled_from([A, AX, B]),
                ),
                max_size=6,
            )
        )
        for r in range(horizon)
    ]


@settings(max_examples=300, deadline=None)
@given(phases=receive_phases(), eta=st.sampled_from([None, 0, 1, 2, 3, 4]))
def test_latest_unexpired_matches_per_round_reference(phases, eta):
    st_ = state(pid=9)
    arrivals = []
    for r, batch in enumerate(phases):
        for msg in batch:
            st_.absorb(msg)
        arrivals.extend(batch)
        initial, current = latest_unexpired(st_.votes_seen, r, eta)
        assert (initial.messages, current) == reference_latest_unexpired(arrivals, r, eta)


class TestStepView0:
    def test_awake_process_proposes_genesis(self):
        msgs = step_view0(state(pid=3), SEED)
        assert len(msgs) == 1
        pm = msgs[0]
        assert pm.log == Log((GENESIS,))
        assert pm.view == 1
        assert pm.ticket == vrf_eval(SEED, 3, 1)

    def test_two_processes_same_log_different_scores(self):
        a = step_view0(state(pid=0), SEED)[0]
        b = step_view0(state(pid=1), SEED)[0]
        assert a.log == b.log
        assert a.ticket != b.ticket


def proposal(sender, view, log, seed=SEED):
    return ProposeMsg(sender=sender, view=view, log=log, ticket=vrf_eval(seed, sender, view))


class TestStepRound1:
    def test_decides_grade1_and_sets_candidate(self):
        st = state()
        out = frontier({A: 1, EMPTY_LOG: 1})
        decided, (vote,) = step_round1([st], 2, out, [])
        assert decided == A
        assert st.candidate == A
        assert vote.round == 3

    def test_conflicting_high_scorer_skipped(self):
        st = state()
        st.candidate = A
        # rig two proposals: the one conflicting with the candidate must lose
        # regardless of score
        p_conflict = proposal(1, 2, B)
        p_extend = proposal(2, 2, AX)
        _, (vote,) = step_round1([st], 2, frontier({A: 1}), [p_conflict, p_extend])
        assert vote.log == AX

    def test_highest_valid_score_wins_among_compatible(self):
        st = state()
        props = [proposal(s, 2, AX) for s in range(5)]
        _, (vote,) = step_round1([st], 2, frontier({A: 1}), props)
        best = max(props, key=lambda p: (p.ticket, p.sender))
        assert vote.log == best.log == AX

    @pytest.mark.parametrize("order", [1, -1])
    def test_equal_tickets_go_to_the_higher_sender(self, order):
        # genuine tickets of two senders never tie, so the reference test
        # below cannot reach this rule; the lower sender's log is the
        # lexicographically smaller one, so only the sender rank picks AX
        low = ProposeMsg(sender=1, view=2, log=A, ticket=7)
        high = ProposeMsg(sender=2, view=2, log=AX, ticket=7)
        assert fields_key(A) < fields_key(AX)
        _, (vote,) = step_round1([state()], 2, GaOutput(), [low, high][::order])
        assert vote.log == AX

    def test_no_proposal_falls_back_to_candidate(self):
        st = state()
        st.candidate = AX
        _, (vote,) = step_round1([st], 3, GaOutput(), [])
        assert vote.log == AX

    def test_conflicting_decision_adopted(self):
        st = state()
        st.candidate = B
        decided, _ = step_round1([st], 2, frontier({A: 1}), [])
        assert decided == A

    def test_no_grade1_output_decides_nothing(self):
        decided, _ = step_round1([state()], 2, frontier({A: 0}), [])
        assert decided is None


class TestStepRound2:
    def test_votes_longest_grade1_proposes_longest_any(self):
        st = state(pid=4)
        out = frontier({A: 1, AX: 0})
        [(vote, pm)] = step_round2([st], 3, out, SEED)
        assert vote.log == A
        assert pm.view == 4
        assert pm.log.values[:-1] == AX.values
        assert pm.log.values[-1] == Value(id=4, proposer=4, view=4)

    def test_genesis_case(self):
        st = state()
        [(vote, pm)] = step_round2([st], 1, frontier({EMPTY_LOG: 1}), SEED)
        assert vote.log == EMPTY_LOG
        assert len(pm.log) == 1

    def test_empty_output_falls_back_to_candidate(self):
        st = state()
        st.candidate = A
        [(vote, pm)] = step_round2([st], 3, GaOutput(), SEED)
        assert vote.log == A
        assert pm.log.values[:-1] == A.values


def verifying_step_round1(state, view, outputs, proposals, seed):
    """``step_round1`` as it was when every receiver re-verified each
    proposal's ticket, kept verbatim except for field access (the ticket
    is ``pm.ticket``, the tag's sender and view were the message's own
    ``pm.sender`` and ``pm.view``, the seed was held by the state, and the
    output's longest logs are read as ``grade1`` and ``longest_any``) and
    for the round-1 rule: a proposal qualifies only if it extends the
    candidate, where it once had only to be compatible with it."""
    longest = longest_any(outputs)
    if longest is not None:
        state.candidate = longest

    valid = []
    for pm in proposals:
        if pm.view != view:
            continue
        if pm.sender != pm.sender or pm.view != view:
            continue
        if pm.ticket != vrf_eval(seed, pm.sender, pm.view):
            continue
        valid.append(pm)

    best = None
    for pm in valid:
        if not is_prefix(state.candidate, pm.log):
            continue
        if best is None:
            best = pm
            continue
        key, best_key = (pm.ticket, pm.sender), (best.ticket, best.sender)
        if key > best_key or (key == best_key and fields_key(pm.log) < fields_key(best.log)):
            best = pm
    vote_log = best.log if best is not None else state.candidate
    return outputs.grade1, VoteMsg(sender=state.pid, round=2 * view - 1, log=vote_log)


# logs over a small value tree: [1], [1, 3], [1, 4] and [2] conflict in
# several ways, so candidates and proposals often conflict
TREE = [Value(1, 0, 1), Value(2, 0, 1), Value(3, 1, 2), Value(4, 2, 2), Value(5, 3, 3)]
tree_logs = st.lists(st.sampled_from(TREE), max_size=3, unique=True).map(
    lambda vs: Log(tuple(sorted(vs, key=lambda v: v.id)))
)


def graded_maps(max_size):
    """Graded outputs given as ``{log: grade}`` maps whose grade-1 logs form
    a chain."""
    return st.dictionaries(tree_logs, st.integers(0, 1), max_size=max_size).filter(
        lambda g: is_chain(log for log, v in g.items() if v == 1)
    )


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 3),
    view=st.integers(1, 4),
    candidate=tree_logs,
    outputs=graded_maps(3),
    # few senders, so one proposer often equivocates under a single ticket
    props=st.lists(st.tuples(st.integers(0, 3), tree_logs), max_size=8),
)
# at seed 0, view 2 the tickets rank senders 1, 2, 3, 0: the top proposal
# conflicts with the candidate, and the next proposer sends two logs under
# one ticket (the case of test_integration)
@example(
    seed=0, view=2, candidate=Log((TREE[0],)), outputs={},
    props=[(1, Log((TREE[1],))), (2, Log((TREE[0], TREE[3]))), (2, Log((TREE[0], TREE[2]))),
           (3, Log((TREE[0],)))],
)
def test_step_round1_matches_the_verifying_reference(seed, view, candidate, outputs, props):
    # every proposal a process holds was admitted with its genuine ticket
    proposals = [
        ProposeMsg(sender=s, view=view, log=log, ticket=vrf_eval(seed, s, view))
        for s, log in props
    ]
    got_state = state(candidate=candidate)
    ref_state = state(candidate=candidate)
    decided, votes = step_round1([got_state], view, frontier(outputs), proposals)
    want = verifying_step_round1(ref_state, view, frontier(outputs), proposals, seed)
    assert (decided, *votes) == want
    assert got_state.candidate == ref_state.candidate



def length_checked_round1_vote_log(proposals, candidate):
    """``round1_vote_log`` as it was when it tested ``compatible`` after a
    length check, kept verbatim."""
    best = None
    for pm in proposals:
        if not (len(pm.log) >= len(candidate) and compatible(pm.log, candidate)):
            continue
        if best is None:
            best = pm
            continue
        key, best_key = (pm.ticket, pm.sender), (best.ticket, best.sender)
        if key > best_key or (key == best_key and pm.log < best.log):
            best = pm
    return best.log if best is not None else candidate


ROUND1_VALUES = [Value(i, i % 3, 1 + i % 2) for i in range(1, 7)]


@st.composite
def round1_cases(draw):
    """A candidate and proposals that each hold, relative to it, an equal
    log (often another object), a strict prefix, an extension, a
    conflicting log or any log."""
    values = st.sampled_from(ROUND1_VALUES)
    candidate = Log(tuple(draw(st.lists(values, max_size=3))))
    proposals = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["equal", "prefix", "extension", "conflict", "any"]))
        cut = draw(st.integers(0, len(candidate)))
        if kind == "equal":
            log = draw(st.sampled_from([candidate, Log(candidate.values)]))
        elif kind == "prefix":
            log = Log(candidate.values[:min(cut, len(candidate) - 1)]) if candidate else candidate
        elif kind == "extension":
            log = Log(candidate.values + tuple(draw(st.lists(values, min_size=1, max_size=2))))
        elif kind == "conflict" and cut < len(candidate):
            other = draw(values.filter(lambda v: v != candidate.values[cut]))
            log = Log(candidate.values[:cut] + (other,) + tuple(draw(st.lists(values, max_size=1))))
        else:
            log = Log(tuple(draw(st.lists(values, max_size=4))))
        # few senders and tickets, so ties on both reach the log tie-break
        proposals.append(ProposeMsg(sender=draw(st.integers(0, 2)), view=1, log=log,
                                    ticket=draw(st.integers(0, 2))))
    return candidate, proposals


@settings(max_examples=500, deadline=None)
@given(case=round1_cases())
def test_round1_vote_log_matches_the_length_checked_predicate(case):
    candidate, proposals = case
    assert round1_vote_log(proposals, candidate) == length_checked_round1_vote_log(
        proposals, candidate
    )

@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 3),
    view=st.integers(1, 4),
    # an empty output, often: every member then keeps its stale candidate;
    # any other output grades the empty log 1, as every output of ga.grade
    # that counted a vote does
    outputs=st.just({}) | graded_maps(3).filter(bool).map(lambda g: {**g, EMPTY_LOG: 1}),
    props=st.lists(st.tuples(st.integers(0, 3), tree_logs), max_size=6),
    # per member: its pid and its stale candidate, which differ between members
    members=st.lists(
        st.tuples(st.integers(0, 9), tree_logs), min_size=1, max_size=8, unique_by=lambda m: m[0]
    ),
)
def test_cohort_steps_match_each_members_reference_step(seed, view, outputs, props, members):
    output = frontier(outputs)
    proposals = frozenset(
        ProposeMsg(sender=s, view=view, log=log, ticket=vrf_eval(seed, s, view))
        for s, log in props
    )
    # World's cohorts: one when the output is not empty, whatever the
    # members' stale candidates, and one per candidate when it is
    cohorts: dict[Log | None, list[tuple[int, Log]]] = {}
    for pid, candidate in members:
        key = None if output else candidate
        cohorts.setdefault(key, []).append((pid, candidate))
    picks = {}  # one memo for the round, as World kept it
    for cohort_members in cohorts.values():
        cohort = [state(pid=p, candidate=c) for p, c in cohort_members]
        refs = [state(pid=p, candidate=c) for p, c in cohort_members]
        decided, votes = step_round1(cohort, view, output, proposals)
        want = [reference_step_round1(ref, view, output, proposals, picks) for ref in refs]
        assert [(decided, vote) for vote in votes] == want
        assert [s.candidate for s in cohort] == [s.candidate for s in refs]

        cohort = [state(pid=p, candidate=c) for p, c in cohort_members]
        refs = [state(pid=p, candidate=c) for p, c in cohort_members]
        got = step_round2(cohort, view, output, seed)
        assert got == [reference_step_round2(ref, view, output, seed) for ref in refs]
        assert [s.candidate for s in cohort] == [s.candidate for s in refs]
