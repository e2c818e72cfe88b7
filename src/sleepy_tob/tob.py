"""Per-process state machine for the total-order broadcast.

View 0 occupies round 0 and only multicasts a proposal for the genesis log.
Every later view v >= 1 spans rounds 2v-1 and 2v, so round r belongs to
view ``view_of(r) = (r + 1) // 2`` and, past round 0, its parity tells
which of the two steps it takes:

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
proposal base once for the cohort and builds each member's vote.  A
cohort's proposals are one fact, the base and each member's ticket, and
no step builds a member's proposal: round 1 ranks such a run as the
proposals it stands for (``round1_vote_log``).  ``World`` forms the
cohorts; after a synchronous receive phase every receiver holds one
output and one proposal store, so a synchronous round is normally one
cohort.

Proposals are ranked by their lottery tickets as given: ``World`` admits a
strategy's proposal only with its genuine ticket
(``ga.check_adversary_message``), and the step functions draw a
well-behaved process's ticket with the seed they are passed, which
``World`` sets to its own, so no receiver checks one again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import (
    EMPTY_LOG,
    GENESIS,
    Log,
    ProcessId,
    ProposeMsg,
    VoteMsg,
    compatible,  # not called here, but perfbench/layers.py patches tob.compatible
    is_prefix,
    new_record,
    vrf_eval,
)
from .ga import GaOutput, InitialVoteSet, keep_latest

if TYPE_CHECKING:  # only for annotations; world imports this module
    from .world import SendEvent

    Proposal = ProposeMsg | SendEvent  # a message, or a run of them


_NO_OLDER_VOTES = InitialVoteSet()


def view_of(r: int) -> int:
    """The view round ``r`` belongs to: view 0 is round 0 and view v >= 1
    spans rounds 2v-1 and 2v."""
    return (r + 1) // 2


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
    # proposals_seen[view] holds the proposals for that view, each a message
    # or a run of them (world.SendEvent); World may set it to a snapshot of
    # frozensets shared by every receiver of a synchronous round, and
    # copies it before absorbing proposals into it
    proposals_seen: dict[int, set[Proposal] | frozenset[Proposal]] = field(
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


def step_view0(cohort: Sequence[ProcessState], seed: int) -> tuple[Log, list[int]]:
    """Round 0: every member proposes the genesis log for view 1, with the
    run ``seed``'s lottery ticket.  Returns that log and each member's
    ticket, in cohort order: the proposals are one fact."""
    return Log((GENESIS,)), [vrf_eval(seed, state.pid, 1) for state in cohort]


def round1_vote_log(proposals: Iterable[Proposal], candidate: Log) -> Log:
    """The log a round-1 step votes: that of the highest-ticket proposal
    extending ``candidate``, ties broken by the higher sender and then the
    lexicographically smaller log, or ``candidate`` itself when no proposal
    extends it.  A pure function of its arguments, so a cohort, whose
    members hold the same proposals and refreshed candidate, computes it
    once.

    ``proposals`` holds messages and runs of proposals (``world.SendEvent``),
    each of one log or of one base that each sender extends by its own
    value.  A run counts the highest (ticket, sender) of its members whose
    log extends the candidate: every member when the candidate is a prefix
    of the run's log or base, else only a member whose log equals the
    candidate.  Only the winner's log is built, or two logs on a tie."""
    best_key = best = None  # the winning key and log, or the (run, k) to build it from
    for pm in proposals:
        if type(pm) is ProposeMsg:
            if not is_prefix(candidate, pm.log):
                continue
            key, won = (pm.ticket, pm.sender), pm.log
        elif is_prefix(candidate, pm.log):
            key = max(zip(pm.tickets, pm.senders))
            won = (pm, pm.senders.index(key[1])) if pm.extends else pm.log
        elif (pm.extends and candidate.parent == pm.log
              and (v := candidate.values[-1]).id == v.view == pm.view and v.proposer in pm.senders):
            key, won = (pm.tickets[pm.senders.index(v.proposer)], v.proposer), candidate
        else:
            continue
        if best_key is None or key > best_key or key == best_key and _built(won) < _built(best):
            best_key, best = key, won
    return candidate if best_key is None else _built(best)


def _built(won: Log | tuple) -> Log:
    """A ranked log, or that of the ``k``-th sender of a ``(run, k)``."""
    return won if type(won) is Log else won[0].proposal(won[1]).log


def step_round1(
    cohort: Sequence[ProcessState],
    view: int,
    outputs: GaOutput,
    proposals: Iterable[Proposal],
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
) -> tuple[Log, list[VoteMsg], list[int]]:
    """Round 2v for a cohort holding ``outputs`` and, if it is empty, one
    candidate: each member votes the longest grade-1 output and proposes
    for view v+1 the longest output extended by its own value
    ``Value(v+1, pid, v+1)``, with the run ``seed``'s lottery ticket.
    Returns that base, each member's vote and each member's ticket, in
    cohort order; the proposals are one fact, and no member's log is built.

    An empty output, from an instance that counted no vote (as for a process
    that woke mid-view and was shown nothing), has neither log, and both
    fall back to the stale candidate.
    """
    if outputs:
        vote_log, head = outputs.grade1, outputs.tops[0]
    else:
        vote_log = head = cohort[0].candidate
    r, nxt = 2 * view, view + 1
    votes = [new_record(VoteMsg, (state.pid, r, vote_log)) for state in cohort]
    return head, votes, [vrf_eval(seed, state.pid, nxt) for state in cohort]
