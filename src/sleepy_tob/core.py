"""Core types for the broadcast simulator: values, logs, protocol messages,
and the seeded hash lottery standing in for a VRF.

A log is a finite sequence of values ordered by the prefix relation; two
logs are compatible when one is a prefix of the other.  Everything else in
the package (vote tallies, decisions, safety oracles) is phrased in terms
of this algebra, so the operations here are kept exact and allocation-light.

Values and messages are named tuples: each equals, hashes and sorts as the
plain tuple of its fields, so values sort by ``(id, proposer, view)``.  Logs
order lexicographically by ``values``, so a tie between logs or values is
broken by comparing them directly, with no separate key.

A proposal carries its lottery ticket as a plain integer.  Verifying a
ticket is recomputing it, and ``World`` does that once, where a strategy's
proposal enters the run; well-behaved processes draw theirs with the run's
seed, so every proposal a process holds carries a genuine ticket.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

ProcessId = int

_MASK64 = (1 << 64) - 1

#: ``new_record(Cls, fields)`` builds the named tuple ``Cls(*fields)`` with the
#: C call that a NamedTuple's generated ``__new__`` makes, without running that
#: Python frame.  It skips the field-count check too, so callers pass exactly
#: ``len(Cls._fields)`` fields, in order.
new_record = tuple.__new__


class Value(NamedTuple):
    """One log entry.  The triple (id, proposer, view) is globally unique,
    which keeps logs unambiguous without hashing and traces readable; it is
    also the value's sort order and hash."""

    id: int
    proposer: ProcessId
    view: int


#: Shared genesis entry: every round-0 proposal carries the log [GENESIS].
GENESIS = Value(id=0, proposer=0, view=0)


@dataclass(frozen=True, slots=True, order=True)
class Log:
    """Immutable sequence of values, equal by value and ordered
    lexicographically by ``values``, and a node of the log tree: its
    ``parent`` is the log without its last value.

    The hash is computed once, at construction: logs are dict keys in every
    tally and oracle, and rehashing the whole value tuple on each lookup
    would make every lookup cost the length of the log.  It is the hash a
    plain frozen dataclass over ``values`` computes, so the iteration order
    of sets holding logs, which some outputs follow, does not depend on the
    caching.

    The parent link is neither compared nor shown.  ``extended`` sets it to
    the receiver; a log built from a value tuple builds its parent on first
    use and keeps it.  So a prefix walk follows links instead of slicing and
    rehashing, and the logs of one chain share their prefixes.  No table
    outside the logs themselves holds them.
    """

    values: tuple[Value, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _parent: "Log | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.values,)))
        object.__setattr__(self, "_parent", None)

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.values)

    def __bool__(self) -> bool:
        return bool(self.values)

    @property
    def parent(self) -> "Log | None":
        """This log without its last value; ``None`` for the empty log."""
        parent = self._parent
        if parent is None and self.values:
            parent = Log(self.values[:-1])
            object.__setattr__(self, "_parent", parent)
        return parent

    def extended(self, value: Value) -> "Log":
        # sets the fields __init__ and __post_init__ would, without their frames
        values = self.values + (value,)
        child = object.__new__(Log)
        object.__setattr__(child, "values", values)
        object.__setattr__(child, "_hash", hash((values,)))
        object.__setattr__(child, "_parent", self)
        return child

    def prefixes(self) -> list["Log"]:
        """Every prefix of this log, from the empty log up to the log itself:
        its ancestors in the log tree."""
        chain = []
        log: Log | None = self
        while log is not None:
            chain.append(log)
            log = log.parent
        chain.reverse()
        return chain

    def __repr__(self) -> str:
        inner = ",".join(f"{v.id}.{v.proposer}v{v.view}" for v in self.values)
        return f"Log[{inner}]"


EMPTY_LOG = Log()


def is_prefix(a: Log, b: Log) -> bool:
    """True iff ``a`` is an initial segment of ``b`` (reflexive)."""
    return a is b or len(a.values) <= len(b.values) and b.values[: len(a.values)] == a.values


def compatible(a: Log, b: Log) -> bool:
    """True iff one log is a prefix of the other."""
    return is_prefix(a, b) or is_prefix(b, a)


def conflicts(a: Log, b: Log) -> bool:
    return not compatible(a, b)


def is_chain(logs: Iterable[Log]) -> bool:
    """True iff the logs are pairwise compatible.

    By transitivity of the prefix order, that holds iff each log is a prefix
    of the next once they are sorted by length.
    """
    ordered = sorted(set(logs), key=len)
    return all(is_prefix(a, b) for a, b in zip(ordered, ordered[1:]))


def longest_common_prefix(logs: Iterable[Log]) -> Log:
    """Longest log that is a prefix of every input; the input set must be
    nonempty.  The shortest input walks down its parents until it is a
    prefix of each distinct input."""
    distinct = dict.fromkeys(logs)
    if not distinct:
        raise ValueError("longest_common_prefix requires a nonempty set of logs")
    lcp = min(distinct, key=len)
    for log in distinct:
        while not is_prefix(lcp, log):
            lcp = lcp.parent
    return lcp


class VoteMsg(NamedTuple):
    """Authenticated vote for a log, tagged with its send round.  Sender
    authenticity is enforced by the simulation environment (no forging).
    Equal to, and hashed as, the tuple ``(sender, round, log)``."""

    sender: ProcessId
    round: int
    log: Log


class ProposeMsg(NamedTuple):
    """Proposal of ``log`` for ``view``, with the sender's lottery ticket
    ``vrf_eval(seed, sender, view)`` for that view.  Equal to, and hashed
    as, the tuple ``(sender, view, log, ticket)``."""

    sender: ProcessId
    view: int
    log: Log
    ticket: int


def vrf_eval(seed: int, p: ProcessId, view: int) -> int:
    """Deterministic lottery ticket of process ``p`` for ``view``.

    Simulated with a keyed hash: verification is recomputation, tickets for
    distinct (sender, view) pairs collide only with negligible probability,
    and exact ties are broken downstream by process id.
    """
    payload = struct.pack(">QQQ", seed & _MASK64, p & _MASK64, view & _MASK64)
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
