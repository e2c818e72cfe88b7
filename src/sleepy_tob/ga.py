"""One-shot weak graded agreement over a single send/receive round.

Each awake process multicasts a vote for a log; each receiver tallies the
votes it holds and outputs graded logs:

* grade 1 for any log backed by more than two thirds of its tally,
* grade 0 for any log backed by more than one third (but at most two thirds).

A vote for a log counts as a vote for every prefix of that log.  Receivers
may additionally start from an *initial set* of older votes (at most one
per sender); a sender's current-round vote takes precedence over its entry
in the initial set, and a sender caught voting two different logs in one
round contributes nothing at all.  With empty initial sets the primitive
reduces to the plain single-round form.  ``keep_latest`` is that rule: it
folds each vote into a store holding one entry per sender, so the two
halves ``tob.latest_unexpired`` splits a store into share no sender, and
``merge_latest`` joins them by one set union.

A receiver's output is held as its frontier (``GaOutput``): the longest
grade-1 log and the maximal graded logs, of which there are at most two.
Both grade sets are closed under prefixes, so the frontier fixes every
grade, and ``grade`` needs counts only for the logs extending the voted
logs' longest common prefix, which is all ``tally`` computes.

Thresholds use exact integer cross-multiplication (3*count > 2*m), never
floating point, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Container, Iterable, Sequence

from .core import Log, ProcessId, ProposeMsg, VoteMsg, is_prefix, longest_common_prefix, vrf_eval


class ForgeryError(Exception):
    """A message claims a sender that is not allowed to author it, or a
    round or lottery ticket that is not its own."""


def check_adversary_message(
    msg: VoteMsg | ProposeMsg, r: int, byzantine: Container[ProcessId], seed: int
) -> None:
    """Raise ``ForgeryError`` unless the adversary may send ``msg`` in round
    ``r``: its sender is Byzantine in ``r``, a vote carries round ``r``, and
    a proposal carries the run ``seed``'s ticket ``vrf_eval(seed, sender,
    view)``."""
    if msg.sender not in byzantine:
        raise ForgeryError(f"adversary message from {msg.sender}, not Byzantine in round {r}")
    if isinstance(msg, VoteMsg):
        if msg.round != r:
            raise ForgeryError(f"adversary vote claims round {msg.round} during round {r}")
    elif msg.ticket != vrf_eval(seed, msg.sender, msg.view):
        raise ForgeryError(
            f"adversary proposal from {msg.sender} has a forged ticket for view {msg.view}"
        )


@dataclass(frozen=True)
class InitialVoteSet:
    """A receiver's carried-over votes from earlier rounds: at most one
    message per sender, all from rounds strictly before the instance's."""

    messages: frozenset[VoteMsg] = frozenset()

    def __post_init__(self) -> None:
        if len({m.sender for m in self.messages}) != len(self.messages):
            raise ValueError("initial vote set holds more than one message per sender")


def keep_latest(
    latest: dict[ProcessId, tuple[int, VoteMsg | None]], msg: VoteMsg
) -> None:
    """Fold ``msg`` into ``latest``, which maps each sender to the round of
    its newest vote and that vote, or ``None`` when the sender voted two
    different logs in that round.

    A later round replaces the entry, a different log at the same round
    marks an equivocation, and an older or duplicate vote changes nothing.
    This is the one rule deciding which of a sender's votes counts.
    """
    entry = latest.get(msg.sender)
    if entry is None or msg.round > entry[0]:
        latest[msg.sender] = (msg.round, msg)
    elif msg.round == entry[0] and entry[1] is not None and entry[1].log != msg.log:
        latest[msg.sender] = (msg.round, None)


def merge_latest(
    initial: InitialVoteSet, current: frozenset[VoteMsg]
) -> frozenset[VoteMsg]:
    """The votes a receiver counts: the older votes ``initial`` and the
    current round's votes ``current``.

    The halves must be the pair ``tob.latest_unexpired`` returns.  It splits
    a store folded with ``keep_latest``, so they share no sender, and each
    holds at most one vote per sender, none from an equivocator; their union
    is then the merge.
    """
    return current | initial.messages


def tally(msgs: Iterable[VoteMsg]) -> dict[Log, int]:
    """Vote count for every prefix of a voted log that extends the voted
    logs' longest common prefix, that prefix included.

    ``count(L)`` is the number of senders whose vote extends (or equals) L;
    the input must hold at most one message per sender.  Every prefix of the
    common prefix has count ``len(msgs)``, so the expansion stops there; in a
    round whose votes share one log it touches that log alone, whatever its
    length.  Votes are grouped by log first, so each distinct log is walked
    once.
    """
    per_log: dict[Log, int] = {}
    for msg in msgs:
        per_log[msg.log] = per_log.get(msg.log, 0) + 1
    if not per_log:
        return {}
    base = len(longest_common_prefix(per_log))
    counts: dict[Log, int] = {}
    for log, k in per_log.items():
        while True:
            counts[log] = counts.get(log, 0) + k
            if len(log.values) == base:
                break
            log = log.parent
    return counts


@dataclass(frozen=True)
class GaOutput:
    """The graded logs one receiver emits, as their frontier: ``grade1``,
    the longest grade-1 log or ``None``, and ``tops``, the maximal graded
    logs, longest first, with ties in log order.

    A prefix's count is at least its extension's, so both grade sets are
    prefix-closed, and the graded logs are exactly the prefixes of the tops,
    the grade-1 logs those of ``grade1``.  Two conflicting grade-1 logs, or a
    grade-1 log and a conflicting graded log, would need more than ``m``
    votes, so ``grade1`` is a prefix of every top.  Two conflicting tops have
    disjoint supporters, each more than ``m/3``, so there are at most two.

    ``grade`` returns an empty output exactly when it tallies no vote.
    Otherwise every vote extends the voted logs' common prefix, which then
    has grade 1, so an output of ``grade`` is empty or has a ``grade1``.
    """

    grade1: Log | None = None
    tops: tuple[Log, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.tops)

    def grade_of(self, log: Log) -> int | None:
        if self.grade1 is not None and is_prefix(log, self.grade1):
            return 1
        return 0 if any(is_prefix(log, top) for top in self.tops) else None


def grade(msgs: Collection[VoteMsg]) -> GaOutput:
    """Grade a merged vote set: a collection of at most one message per
    sender.  A graded log is a top when no child of it is graded."""
    m = len(msgs)
    graded: list[Log] = []
    grade1 = None
    for log, count in tally(msgs).items():
        if 3 * count > m:
            graded.append(log)
            if 3 * count > 2 * m and (grade1 is None or len(log.values) > len(grade1.values)):
                grade1 = log
    inner = {log.parent for log in graded}
    tops = [log for log in graded if log not in inner]
    if len(tops) > 1:
        tops.sort(key=lambda log: (-len(log.values), log))
    return GaOutput(grade1, tuple(tops))


@dataclass(frozen=True)
class ReceiverView:
    """What one receiver held and produced in an instance."""

    initial: InitialVoteSet
    received: frozenset[VoteMsg]
    output: GaOutput
    m: int  # perceived participation: distinct non-equivocating senders


@dataclass(frozen=True)
class GaRecord:
    """Full evidence of one instance, consumed by the trace oracles."""

    round: int
    synchronous: bool
    inputs: dict[ProcessId, Log]
    byzantine: frozenset[ProcessId]
    receivers: dict[ProcessId, ReceiverView]


def delivered(
    q: ProcessId, sent: Sequence, queued: Iterable[int], chosen: Iterable
) -> tuple[list[int], list[int]]:
    """Asynchronous delivery to receiver ``q``: split ``queued``, indices
    into ``sent``, keeping queue order, into those of the messages the
    adversary ``chosen`` or that ``q`` sent itself, and the rest, which stay
    held.

    Self-delivery is never suppressed, and a chosen message that was never
    queued (a forgery) is never delivered.  A message equal to a chosen one
    has a chosen sender, so only a message from one is looked up.
    """
    chosen = set(chosen)
    senders = {m.sender for m in chosen}
    kept, held = [], []
    for i in queued:
        m = sent[i]
        (kept if m.sender == q or m.sender in senders and m in chosen else held).append(i)
    return kept, held
