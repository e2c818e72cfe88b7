"""Core types for the broadcast simulator: values, logs, protocol messages,
and the seeded hash lottery standing in for a VRF.

A log is a finite sequence of values ordered by the prefix relation; two
logs are compatible when one is a prefix of the other.  Everything else in
the package (vote tallies, decisions, safety oracles) is phrased in terms
of this algebra, so the operations here are kept exact and allocation-light.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

ProcessId = int

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, slots=True)
class Value:
    """One log entry.  The triple (id, proposer, view) is globally unique,
    which keeps logs unambiguous without hashing and traces readable."""

    id: int
    proposer: ProcessId
    view: int

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.id, self.proposer, self.view)


#: Shared genesis entry: every round-0 proposal carries the log [GENESIS].
GENESIS = Value(id=0, proposer=0, view=0)


@dataclass(frozen=True, slots=True)
class Log:
    """Immutable sequence of values."""

    values: tuple[Value, ...] = ()

    def __len__(self) -> int:
        return len(self.values)

    def __bool__(self) -> bool:
        return bool(self.values)

    def extended(self, value: Value) -> "Log":
        return Log(self.values + (value,))

    def prefixes(self) -> Iterator["Log"]:
        """Every prefix of this log, from the empty log up to the log itself."""
        for k in range(len(self.values) + 1):
            yield Log(self.values[:k])

    @property
    def lex_key(self) -> tuple[tuple[int, int, int], ...]:
        """Deterministic tie-break key ordering logs by their value ids."""
        return tuple(v.sort_key for v in self.values)

    def __repr__(self) -> str:
        inner = ",".join(f"{v.id}.{v.proposer}v{v.view}" for v in self.values)
        return f"Log[{inner}]"


EMPTY_LOG = Log()


def is_prefix(a: Log, b: Log) -> bool:
    """True iff ``a`` is an initial segment of ``b`` (reflexive)."""
    return len(a.values) <= len(b.values) and b.values[: len(a.values)] == a.values


def compatible(a: Log, b: Log) -> bool:
    """True iff one log is a prefix of the other."""
    return is_prefix(a, b) or is_prefix(b, a)


def conflicts(a: Log, b: Log) -> bool:
    return not compatible(a, b)


def longest_common_prefix(logs: Iterable[Log]) -> Log:
    """Longest log that is a prefix of every input; the input set must be
    nonempty."""
    seqs = [log.values for log in logs]
    if not seqs:
        raise ValueError("longest_common_prefix requires a nonempty set of logs")
    shortest = min(seqs, key=len)
    k = 0
    while k < len(shortest) and all(s[k] == shortest[k] for s in seqs):
        k += 1
    return Log(shortest[:k])


@dataclass(frozen=True, slots=True)
class VoteMsg:
    """Authenticated vote for a log, tagged with its send round.  Sender
    authenticity is enforced by the simulation environment (no forging)."""

    sender: ProcessId
    round: int
    log: Log


@dataclass(frozen=True, slots=True)
class VrfTag:
    """Leader-lottery ticket: a 64-bit score bound to (sender, view)."""

    value: int
    sender: ProcessId
    view: int


@dataclass(frozen=True, slots=True)
class ProposeMsg:
    sender: ProcessId
    view: int
    log: Log
    vrf: VrfTag


def vrf_eval(seed: int, p: ProcessId, view: int) -> VrfTag:
    """Deterministic lottery score for (seed, p, view).

    Simulated with a keyed hash: verification is recomputation, scores for
    distinct (sender, view) pairs collide only with negligible probability,
    and exact ties are broken downstream by process id.
    """
    payload = struct.pack(">QQQ", seed & _MASK64, p & _MASK64, view & _MASK64)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return VrfTag(value=int.from_bytes(digest, "big"), sender=p, view=view)


def vrf_verify(tag: VrfTag, seed: int) -> bool:
    """True iff ``tag`` was produced by ``vrf_eval`` under ``seed``; a
    mismatch signals a forged proposal."""
    return tag == vrf_eval(seed, tag.sender, tag.view)
