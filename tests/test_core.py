import itertools
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fields_key, sliced_common_prefix, sliced_prefixes
from sleepy_tob.core import (
    EMPTY_LOG,
    Log,
    ProposeMsg,
    Value,
    VoteMsg,
    compatible,
    conflicts,
    is_chain,
    is_prefix,
    longest_common_prefix,
    vrf_eval,
)

V = [Value(id=i, proposer=0, view=0) for i in range(3)]


def mklog(*ids: int) -> Log:
    return Log(tuple(V[i] for i in ids))


def all_logs(max_len: int = 4):
    for n in range(max_len + 1):
        for ids in itertools.product(range(3), repeat=n):
            yield mklog(*ids)


log_strategy = st.lists(st.integers(0, 2), max_size=5).map(lambda ids: mklog(*ids))
#: Sets of short logs over three values: duplicates, shared prefixes and the
#: empty log all come up often.
log_sets = st.lists(
    st.lists(st.integers(0, 2), max_size=3).map(lambda ids: mklog(*ids)), max_size=8
)


def test_is_prefix_examples():
    assert is_prefix(EMPTY_LOG, mklog(0))
    assert is_prefix(mklog(0, 1), mklog(0, 1))
    assert not is_prefix(mklog(0, 1), mklog(0, 2))


def test_compatible_examples():
    assert compatible(mklog(0), mklog(0, 1))
    assert not compatible(mklog(0, 1), mklog(0, 2))
    assert compatible(EMPTY_LOG, EMPTY_LOG)


def test_prefix_partial_order_exhaustive():
    logs = list(all_logs(4))
    # brute-force comparison on raw tuples
    def naive(a, b):
        return a.values == b.values[: len(a.values)]

    for a in logs:
        assert is_prefix(a, a)
        for b in logs:
            assert is_prefix(a, b) == naive(a, b)
            if is_prefix(a, b) and is_prefix(b, a):
                assert a == b


def test_prefix_transitive_sampled():
    logs = list(all_logs(3))
    for a, b, c in itertools.product(logs, repeat=3):
        if is_prefix(a, b) and is_prefix(b, c):
            assert is_prefix(a, c)


@given(log_strategy, log_strategy)
def test_compatible_symmetric(a, b):
    assert compatible(a, b) == compatible(b, a)


@given(log_strategy, log_strategy, st.integers(0, 2))
def test_conflict_preserved_under_extension(a, b, i):
    if conflicts(a, b):
        assert conflicts(a.extended(V[i]), b)


@given(st.lists(st.integers(0, 2), max_size=5), st.lists(st.integers(0, 2), max_size=5))
def test_log_hash_eq_contract(ids, other_ids):
    a = mklog(*ids)
    built = EMPTY_LOG
    for i in ids:
        built = built.extended(V[i])
    assert a == built and hash(a) == hash(built)
    assert (a == mklog(*other_ids)) == (ids == other_ids)
    # the hash a plain frozen dataclass over ``values`` computes: the iteration
    # order of sets of logs (and of messages holding logs) must not depend on
    # the caching
    assert hash(a) == hash((a.values,))
    assert list(a.prefixes())[-1] == a
    with pytest.raises(AttributeError):
        a.values = ()
    with pytest.raises(AttributeError):
        a._hash = 0


#: Values that differ in every field, so that ties on ``id`` fall to
#: ``proposer`` and then to ``view``.
values = st.builds(Value, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
mixed_logs = st.lists(values, max_size=4).map(lambda vs: Log(tuple(vs)))


@given(st.lists(mixed_logs, min_size=1, max_size=8), st.lists(values, min_size=1, max_size=8))
def test_values_and_logs_order_as_their_fields(logs, vals):
    # the reference keys are built from the fields, not from the types' order
    assert sorted(vals) == sorted(vals, key=lambda v: (v.id, v.proposer, v.view))
    assert sorted(logs) == sorted(logs, key=fields_key)
    assert min(logs) == min(logs, key=fields_key)
    for a, b in zip(logs, logs[1:]):
        assert (a < b, a <= b, a == b) == (
            fields_key(a) < fields_key(b), fields_key(a) <= fields_key(b),
            fields_key(a) == fields_key(b))


@given(st.integers(), st.integers(), st.integers(), mixed_logs)
def test_values_and_messages_hash_as_their_field_tuples(a, b, c, log):
    # the hashes the frozen dataclasses computed, so set orders cannot move
    value, vote, proposal = Value(a, b, c), VoteMsg(a, b, log), ProposeMsg(a, b, log, c)
    assert hash(value) == hash((a, b, c))
    assert hash(vote) == hash((a, b, log))
    assert hash(proposal) == hash((a, b, log, c))
    assert vote != proposal and vote != value and proposal != value


def test_structural_examples():
    assert is_chain([]) and is_chain([EMPTY_LOG, mklog(0, 1), mklog(0), mklog(0, 1)])
    assert not is_chain([mklog(0), mklog(1)])


@given(log_sets)
def test_is_chain_matches_pairwise_scan(logs):
    pairwise = all(compatible(a, b) for a, b in itertools.combinations(logs, 2))
    assert is_chain(logs) == pairwise


@st.composite
def tree_logs(draw):
    """A log built one of three ways: by an ``extended`` chain from the empty
    log, from a value tuple, or as a slice of a longer log's values."""
    ids = draw(st.lists(st.integers(0, 2), max_size=6))
    how = draw(st.sampled_from(["extended", "tuple", "slice"]))
    if how == "extended":
        log = EMPTY_LOG
        for i in ids:
            log = log.extended(V[i])
        return log
    if how == "tuple":
        return mklog(*ids)
    longer = mklog(*ids, *draw(st.lists(st.integers(0, 2), max_size=3)))
    return Log(longer.values[: len(ids)])


@given(tree_logs(), st.integers(0, 2))
def test_log_tree_matches_slices(log, i):
    values = log.values
    chain = log.prefixes()
    assert chain == sliced_prefixes(log)
    assert chain[-1] is log
    assert all(child.parent is parent for parent, child in zip(chain, chain[1:]))
    if values:
        assert log.parent == Log(values[:-1])
    else:
        assert log.parent is None and chain == [EMPTY_LOG]
    child = log.extended(V[i])
    assert child.parent is log and child == Log(values + (V[i],))
    assert hash(log) == hash((values,))
    assert hash(child) == hash((child.values,))
    with pytest.raises(FrozenInstanceError):
        child.values = values
    # the link is neither compared nor shown
    assert log == Log(values) and repr(log) == repr(Log(values))


@given(st.lists(tree_logs(), min_size=1, max_size=6))
def test_lcp_matches_value_by_value_scan(logs):
    assert longest_common_prefix(logs) == sliced_common_prefix(logs)


def test_lcp_matches_value_by_value_scan_on_edge_sets():
    chain = EMPTY_LOG.extended(V[0]).extended(V[1])
    cases = [
        [mklog(0, 1), mklog(0, 1), mklog(0, 1)],  # duplicates
        [chain, mklog(0, 1)],  # equal logs, one linked and one built from values
        [mklog(2, 1, 0)],  # a single log
        [mklog(0, 1, 2), mklog(0, 2, 1), mklog(0, 1)],  # conflicting logs
        [mklog(1), mklog(2)],  # conflicting from the first value
        [mklog(0, 1), EMPTY_LOG, mklog(0)],  # the empty log among them
        [EMPTY_LOG],
    ]
    for logs in cases:
        assert longest_common_prefix(logs) == sliced_common_prefix(logs)
        assert longest_common_prefix(reversed(logs)) == sliced_common_prefix(logs)


def test_lcp_examples():
    assert longest_common_prefix({mklog(0, 1), mklog(0, 2)}) == mklog(0)
    assert longest_common_prefix({mklog(0, 1)}) == mklog(0, 1)
    assert longest_common_prefix({mklog(0), mklog(1)}) == EMPTY_LOG


def test_lcp_empty_set_rejected():
    with pytest.raises(ValueError):
        longest_common_prefix(set())


@given(st.lists(log_strategy, min_size=1, max_size=5))
def test_lcp_is_prefix_of_all_and_maximal(logs):
    lcp = longest_common_prefix(logs)
    assert all(is_prefix(lcp, log) for log in logs)
    # no longer common prefix exists: extending by any next value breaks it
    shortest = min(logs, key=len)
    if len(lcp) < len(shortest):
        longer = lcp.extended(shortest.values[len(lcp)])
        assert not all(is_prefix(longer, log) for log in logs)


def test_vrf_ticket_is_bound_to_seed_sender_and_view():
    # World checks a proposal's ticket by recomputing it, so a ticket drawn
    # under another seed, for another sender or for another view must differ
    ticket = vrf_eval(123, 4, 5)
    assert 0 <= ticket < 1 << 64
    assert ticket not in {vrf_eval(124, 4, 5), vrf_eval(123, 3, 5), vrf_eval(123, 4, 6)}


def test_vrf_deterministic():
    assert vrf_eval(9, 1, 2) == vrf_eval(9, 1, 2)


def test_vrf_seed_separation_no_collisions():
    # distinct seeds give distinct scores for the same (process, view)
    collisions = sum(
        1 for s in range(10_000) if vrf_eval(s, 3, 7) == vrf_eval(s + 10_000, 3, 7)
    )
    assert collisions == 0
