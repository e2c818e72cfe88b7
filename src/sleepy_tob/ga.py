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

Thresholds use exact integer cross-multiplication (3*count > 2*m), never
floating point, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Container, Iterable, Sequence

from .core import Log, ProcessId, ProposeMsg, VoteMsg


class ForgeryError(Exception):
    """A message claims a sender that is not allowed to author it, or a
    round or lottery ticket that is not its own."""


def check_adversary_message(
    msg: VoteMsg | ProposeMsg, r: int, byzantine: Container[ProcessId]
) -> None:
    """Raise ``ForgeryError`` unless the adversary may send ``msg`` in round
    ``r``: its sender is Byzantine in ``r``, and a vote carries round ``r``."""
    if msg.sender not in byzantine:
        raise ForgeryError(f"adversary message from {msg.sender}, not Byzantine in round {r}")
    if isinstance(msg, VoteMsg) and msg.round != r:
        raise ForgeryError(f"adversary vote claims round {msg.round} during round {r}")


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
    """Vote count for every prefix of every voted log.

    ``count(L)`` is the number of senders whose vote extends (or equals) L;
    the input must hold at most one message per sender.  Votes are grouped
    by log first, so each distinct log's prefixes are expanded once.
    """
    per_log: dict[Log, int] = {}
    for msg in msgs:
        per_log[msg.log] = per_log.get(msg.log, 0) + 1
    counts: dict[Log, int] = {}
    for log, k in per_log.items():
        for p in log.prefixes():
            counts[p] = counts.get(p, 0) + k
    return counts


@dataclass(frozen=True)
class GaOutput:
    """Graded logs emitted by one receiver: log -> grade, keeping only the
    maximal grade per log.

    The selections the protocol and the oracle read are made once, at
    construction and in one pass over ``grades``, since every receiver of a
    synchronous round shares one output; they are not compared or shown, so
    an output is equal to and shown as its ``grades``, which must not be
    changed after construction.
    """

    grades: dict[Log, int] = field(default_factory=dict)
    _grade1: tuple[Log, ...] = field(init=False, compare=False, repr=False)
    _longest_grade1: Log | None = field(init=False, compare=False, repr=False)
    _longest_any: Log | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        grade1: list[Log] = []
        longest_grade1 = longest_any = None
        top1 = top = -1
        for log, g in self.grades.items():
            size = len(log.values)
            if g == 1:
                grade1.append(log)
                if size > top1:
                    longest_grade1, top1 = log, size
            if size > top or size == top and log < longest_any:
                longest_any, top = log, size
        object.__setattr__(self, "_grade1", tuple(grade1))
        object.__setattr__(self, "_longest_grade1", longest_grade1)
        object.__setattr__(self, "_longest_any", longest_any)

    def __bool__(self) -> bool:
        return bool(self.grades)

    def grade_of(self, log: Log) -> int | None:
        return self.grades.get(log)

    def grade1_logs(self) -> list[Log]:
        return list(self._grade1)

    def longest_grade1(self) -> Log | None:
        """Longest grade-1 log.  Two conflicting grade-1 logs would need more
        than ``m`` votes, so grade-1 logs form a chain and the longest one is
        unique."""
        return self._longest_grade1

    def longest_any(self) -> Log | None:
        """Longest output at any grade.  A grade-1 log and a conflicting log
        of any grade would also need more than ``m`` votes, so equal-length
        outputs are both grade 0; the smallest in log order wins."""
        return self._longest_any


def grade(msgs: Collection[VoteMsg]) -> GaOutput:
    """Grade a merged vote set: a collection of at most one message per
    sender."""
    m = len(msgs)
    grades: dict[Log, int] = {}
    for log, count in tally(msgs).items():
        if 3 * count > 2 * m:
            grades[log] = 1
        elif 3 * count > m:
            grades[log] = 0
    return GaOutput(grades)


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
