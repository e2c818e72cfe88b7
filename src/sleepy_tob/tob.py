"""Per-process state machine for the total-order broadcast.

View 0 occupies round 0 and only multicasts a proposal for the genesis log.
Every later view v >= 1 spans rounds 2v-1 and 2v:

* round 2v-1: take the outputs of the previous round's agreement
  instance, decide the longest grade-1 log (it extends every other
  grade-1 output), set the candidate to the longest output at any grade,
  then vote for the log of the highest-ticket proposal that extends the
  candidate (a strict prefix of it does not qualify);
* round 2v: vote for the longest grade-1 output of the current view's
  first instance, and multicast a proposal extending the chain head, the
  longest output at any grade, with a fresh value.

Round 0 is no agreement instance, since no well-behaved process votes in
it, so a process reaches round 1 with an empty output: the view-1 step
decides nothing and keeps the empty candidate.  Votes sent in round 0 (by
Byzantine processes only) stay in the store and count in later instances
within the expiry window, like any older vote.

Votes feeding an instance are the *latest unexpired* messages: for each
sender, the single newest vote sent in the last ``eta`` rounds, with a
sender whose newest votes disagree contributing nothing.  ``eta = 0``
reproduces the plain current-round-only protocol; ``eta`` is read from the
run's parameters and not stored here.

The round-1 and round-2 steps take a cohort: processes awake in one round
that hold the same pending output and proposal store and, if that output
is empty, the same candidate.  A step reads a member's candidate only when
its output is empty: ``ga.grade`` returns an empty output exactly when it
tallies no vote, and any other output has a grade-1 log and a longest log,
which the steps take in its place.  A step reads nothing else of a member
but its pid.  So a step works out the decision, the vote log and the
proposal base once for the cohort and builds each member's messages from
them.  ``World`` forms the cohorts; after a synchronous receive phase every
receiver holds one output and one proposal store, so a synchronous round
is normally one cohort.

Proposals are ranked by their lottery tickets as given: ``World`` admits a
strategy's proposal only with its genuine ticket
(``ga.check_adversary_message``), and the step functions draw a
well-behaved process's ticket with the seed they are passed, which
``World`` sets to its own, so no receiver checks one again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .core import (
    EMPTY_LOG,
    GENESIS,
    Log,
    ProcessId,
    ProposeMsg,
    Value,
    VoteMsg,
    compatible,  # not called here, but perfbench/layers.py patches tob.compatible
    is_prefix,
    new_record,
    vrf_eval,
)
from .ga import GaOutput, InitialVoteSet, keep_latest


_NO_OLDER_VOTES = InitialVoteSet()


class Phase(Enum):
    VIEW0 = "view0"
    ROUND1 = "round1"
    ROUND2 = "round2"


@dataclass(frozen=True, slots=True)
class ViewClock:
    """Maps a round number onto its view and phase: view 0 lasts one round,
    view v >= 1 occupies rounds 2v-1 and 2v."""

    round: int

    @property
    def view(self) -> int:
        return 0 if self.round == 0 else (self.round + 1) // 2

    @property
    def phase(self) -> Phase:
        if self.round == 0:
            return Phase.VIEW0
        return Phase.ROUND1 if self.round % 2 == 1 else Phase.ROUND2


@dataclass
class ProcessState:
    """Mutable per-process protocol state plus its message store.

    It holds no delivered log: ``step_round1`` returns each decision, and
    the trace's decide events are the one record of what was delivered.
    """

    pid: ProcessId
    candidate: Log = EMPTY_LOG  # longest any-grade output seen at the last round-1 step
    # votes_seen[sender] is (round, vote) for the sender's newest vote, the
    # vote None if it equivocated in that round (see ga.keep_latest).  World
    # may set it to a snapshot shared by every receiver of a synchronous
    # round; a shared store is never changed in place, as World copies it
    # before absorbing votes into it
    votes_seen: dict[ProcessId, tuple[int, VoteMsg | None]] = field(default_factory=dict)
    # proposals_seen[view] holds the proposals for that view; World may set
    # it to a snapshot of frozensets shared by every receiver of a
    # synchronous round, and copies it before absorbing proposals into it
    proposals_seen: dict[int, set[ProposeMsg] | frozenset[ProposeMsg]] = field(
        default_factory=dict
    )
    pending_output: GaOutput = field(default_factory=GaOutput)  # read by the next step

    def absorb(self, msg: VoteMsg | ProposeMsg) -> None:
        if isinstance(msg, VoteMsg):
            keep_latest(self.votes_seen, msg)
        else:
            self.proposals_seen.setdefault(msg.view, set()).add(msg)


def latest_unexpired(
    votes_seen: dict[ProcessId, tuple[int, VoteMsg | None]],
    r: int,
    eta: int | None,
) -> tuple[InitialVoteSet, frozenset[VoteMsg]]:
    """Split a vote store into (older latest votes, current-round votes) for
    the instance at round ``r``.

    Each sender's newest vote counts if it was sent in rounds
    [r - eta, r] (any round, with ``eta`` ``None``); a
    sender whose newest round equivocated is dropped, with no fallback to an
    older vote.  This relies on the store holding no round above ``r`` at
    the round-``r`` receive phase, which ``World`` ensures by rejecting
    strategy votes that do not carry round ``r``.  The pair feeds
    ``ga.merge_latest``: the store holds one entry per sender, so the two
    halves share no sender and neither holds an equivocation.  With no older vote counting, as in every
    fault-free round, the older set is one shared empty set.
    """
    lo = 0 if eta is None else max(0, r - eta)
    initial: list[VoteMsg] = []
    current: list[VoteMsg] = []
    for rnd, msg in votes_seen.values():
        if msg is not None and rnd >= lo:
            (current if rnd == r else initial).append(msg)
    older = InitialVoteSet(frozenset(initial)) if initial else _NO_OLDER_VOTES
    return older, frozenset(current)


def step_view0(state: ProcessState, seed: int) -> list[ProposeMsg]:
    """Round 0: propose the genesis log with the run ``seed``'s lottery
    ticket for view 1."""
    return [
        ProposeMsg(
            sender=state.pid,
            view=1,
            log=Log((GENESIS,)),
            ticket=vrf_eval(seed, state.pid, 1),
        )
    ]


def round1_vote_log(proposals: Iterable[ProposeMsg], candidate: Log) -> Log:
    """The log a round-1 step votes: that of the highest-ticket proposal
    extending ``candidate``, ties broken by the higher sender and then the
    lexicographically smaller log, or ``candidate`` itself when no proposal
    extends it.  A pure function of its arguments, so a cohort, whose
    members hold the same proposals and refreshed candidate, computes it
    once."""
    best: ProposeMsg | None = None
    for pm in proposals:
        if not is_prefix(candidate, pm.log):
            continue
        if best is None:
            best = pm
            continue
        key, best_key = (pm.ticket, pm.sender), (best.ticket, best.sender)
        if key > best_key or (key == best_key and pm.log < best.log):
            best = pm
    return best.log if best is not None else candidate


def step_round1(
    cohort: Sequence[ProcessState],
    view: int,
    outputs: GaOutput,
    proposals: Iterable[ProposeMsg],
) -> tuple[Log | None, list[VoteMsg]]:
    """Round 2v-1 for a cohort: decide, refresh the candidate, and vote a
    proposal.

    Every member holds ``outputs``, ``proposals`` (its proposals for
    ``view``, which may be shared and are not changed) and, if ``outputs``
    is empty, the same candidate.  Returns the decided log (the longest
    grade-1 output, or ``None``) and one vote per member, in cohort order,
    whose log is ``round1_vote_log`` of the proposals and the refreshed
    candidate: the longest output, or the stale candidate when ``outputs``
    is empty.  Falling back to the candidate, and never voting a strict
    prefix of it, keeps the vote extending anything the member has decided.
    """
    candidate = outputs.tops[0] if outputs else cohort[0].candidate
    for state in cohort:
        state.candidate = candidate
    vote_log = round1_vote_log(proposals, candidate)
    r = 2 * view - 1
    votes = [new_record(VoteMsg, (state.pid, r, vote_log)) for state in cohort]
    return outputs.grade1, votes


def step_round2(
    cohort: Sequence[ProcessState], view: int, outputs: GaOutput, seed: int
) -> list[tuple[VoteMsg, ProposeMsg]]:
    """Round 2v for a cohort holding ``outputs`` and, if it is empty, one
    candidate: each member votes the longest grade-1 output and proposes
    for view v+1, extending the longest output, with the run ``seed``'s
    lottery ticket.  Returns each member's vote and proposal, in cohort
    order.

    An empty output, from an instance that counted no vote (as for a process
    that woke mid-view and was shown nothing), has neither log, and both
    fall back to the stale candidate.
    """
    if outputs:
        vote_log, head = outputs.grade1, outputs.tops[0]
    else:
        vote_log = head = cohort[0].candidate
    r, nxt = 2 * view, view + 1
    sends = []
    for state in cohort:
        pid = state.pid
        fresh = new_record(Value, (nxt, pid, nxt))
        pm = new_record(ProposeMsg, (pid, nxt, head.extended(fresh), vrf_eval(seed, pid, nxt)))
        sends.append((new_record(VoteMsg, (pid, r, vote_log)), pm))
    return sends
