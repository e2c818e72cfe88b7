"""The receive computation's steps against the code they replaced.

``reference_keep_latest`` and ``reference_merge_latest`` are kept verbatim
as they were when ``merge_latest`` folded every vote through
``keep_latest``; ``reference_delivered`` as it was when ``ga.delivered``
looked every queued message up in the chosen set; and
``reference_selections`` makes ``GaOutput``'s three selections as they
were made before its frontier held them, in four passes over the grades.

The receive computation ``World`` runs (``keep_latest`` store,
``latest_unexpired``, ``merge_latest``, as ``helpers.store_merge`` chains
them) must give the reference's frozenset for round votes with equal copies,
both with no sender voting two logs, where the merge is a plain union of the
round votes and the initial votes of senders with no round vote, and with an
equivocation, whose sender the store drops.  ``delivered`` must keep and hold the same
indices, in queue order, for queues that hold equal messages at two
indices and the receiver's own sends, and for chosen messages that are
equal but not identical to a queued one or that were never queued.  A
frontier's longest grade-1 log, its longest log and its grade-1 logs must
be the reference's selections over its expansion to every graded log.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import expand, frontier, longest_any, merge_inputs, store_merge
from sleepy_tob.core import Log, ProcessId, ProposeMsg, Value, VoteMsg, is_chain
from sleepy_tob.ga import delivered

A = Log((Value(1, 0, 1),))
B = Log((Value(2, 0, 1),))
AX = Log((Value(1, 0, 1), Value(3, 1, 2)))
LOGS = [A, B, AX]

# ---------------------------------------------------------------------------
# references


def reference_keep_latest(
    latest: dict[ProcessId, tuple[int, VoteMsg | None]], msg: VoteMsg
) -> None:
    entry = latest.get(msg.sender)
    if entry is None or msg.round > entry[0]:
        latest[msg.sender] = (msg.round, msg)
    elif msg.round == entry[0] and entry[1] is not None and entry[1].log != msg.log:
        latest[msg.sender] = (msg.round, None)


def reference_merge_latest(initial, round_msgs):
    latest: dict[ProcessId, tuple[int, VoteMsg | None]] = {}
    for msg in round_msgs:
        reference_keep_latest(latest, msg)
    for msg in initial.messages:
        reference_keep_latest(latest, msg)
    return frozenset(msg for _, msg in latest.values() if msg is not None)


def reference_delivered(q, sent, queued, chosen):
    chosen = set(chosen)
    kept, held = [], []
    for i in queued:
        m = sent[i]
        (kept if m in chosen or m.sender == q else held).append(i)
    return kept, held


def reference_selections(grades):
    grade1 = tuple(log for log, g in grades.items() if g == 1)
    top = max(map(len, grades), default=0)
    tied = [log for log in grades if len(log) == top]
    return list(grade1), max(grade1, key=len, default=None), min(tied, default=None)


def copy_of(msg):
    """An equal message that shares no object with ``msg``."""
    return type(msg)(*(Log(f.values) if isinstance(f, Log) else f for f in msg))


# ---------------------------------------------------------------------------
# merge_latest


@settings(max_examples=300)
@given(merge_inputs(equivocation=False))
def test_merge_latest_union_branch_matches_fold(inputs):
    r, initial, round_msgs = inputs
    merged = store_merge(r, initial, round_msgs)
    voted = {m.sender for m in round_msgs}
    assert merged == frozenset(round_msgs) | {m for m in initial.messages if m.sender not in voted}
    assert merged == reference_merge_latest(initial, round_msgs)


@settings(max_examples=300)
@given(merge_inputs(equivocation=True))
def test_merge_latest_fold_branch_matches_fold(inputs):
    r, initial, round_msgs = inputs
    merged = store_merge(r, initial, round_msgs)
    logs: dict[ProcessId, set[Log]] = {}
    for m in round_msgs:
        logs.setdefault(m.sender, set()).add(m.log)
    equivocators = {s for s, voted in logs.items() if len(voted) > 1}
    assert equivocators
    assert not any(m.sender in equivocators for m in merged)
    assert merged == reference_merge_latest(initial, round_msgs)


# ---------------------------------------------------------------------------
# delivered


MESSAGES = st.one_of(
    st.builds(VoteMsg, st.integers(0, 4), st.integers(0, 3), st.sampled_from(LOGS)),
    st.builds(
        ProposeMsg, st.integers(0, 4), st.integers(1, 2), st.sampled_from(LOGS), st.integers(0, 3)
    ),
)


@st.composite
def delivery_inputs(draw):
    """A receiver, its sends, its queue and the adversary's choice.

    The send log holds the receiver's own send and an equal copy of another
    send.  The queue holds both of those and any other sends, in any order.
    The choice holds queued messages, some as equal copies, and forgeries:
    messages that were never sent, or were sent and not queued."""
    q = draw(st.integers(0, 4))
    msgs = draw(st.lists(MESSAGES, min_size=1, max_size=10))
    own = VoteMsg(q, 3, draw(st.sampled_from(LOGS)))
    twin = draw(st.integers(0, len(msgs) - 1))
    sent = [*msgs, own, copy_of(msgs[twin])]
    others = [i for i in range(len(msgs)) if i != twin]
    rest = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    queued = draw(st.permutations([twin, len(msgs), len(msgs) + 1, *rest]))
    picked = draw(st.lists(st.sampled_from(queued)))
    chosen = [sent[i] if draw(st.booleans()) else copy_of(sent[i]) for i in picked]
    chosen += draw(st.lists(MESSAGES.filter(lambda m: m not in sent), min_size=1, max_size=3))
    unqueued = [sent[i] for i in range(len(sent)) if i not in queued]
    if unqueued:
        chosen += draw(st.lists(st.sampled_from(unqueued), max_size=2))
    return q, sent, queued, draw(st.permutations(chosen))


@settings(max_examples=300)
@given(delivery_inputs())
def test_delivered_matches_lookup_of_every_message(inputs):
    q, sent, queued, chosen = inputs
    kept, held = delivered(q, sent, queued, chosen)
    assert (kept, held) == reference_delivered(q, sent, queued, chosen)
    assert sorted(kept + held) == sorted(queued)


# ---------------------------------------------------------------------------
# GaOutput selections


VALUES = [Value(i, i % 2, 1) for i in range(4)]
GRADE_LOGS = st.lists(st.sampled_from(VALUES), max_size=3).map(lambda vs: Log(tuple(vs)))


@settings(max_examples=300)
@given(
    st.dictionaries(GRADE_LOGS, st.integers(0, 1), max_size=8).filter(
        lambda g: is_chain(log for log, v in g.items() if v == 1)
    )
)
@example({})
@example({A: 0, B: 0, AX: 0})
@example({A: 1, B: 0, Log(): 0})
def test_frontier_selections_match_four_passes(grades):
    # ties in length among the tops, as at grade 0 in a graded output
    out = frontier(grades)
    grade1, longest_grade1, longest = reference_selections(expand(out))
    assert (out.grade1, longest_any(out)) == (longest_grade1, longest)
    assert sorted(grade1, key=len) == ([] if out.grade1 is None else out.grade1.prefixes())
