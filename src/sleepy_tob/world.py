"""Round-based sleepy-model environment.

A schedule fixes, per round, which well-behaved processes are awake and
which processes are Byzantine, plus at most one asynchronous window
[r_a+1, r_a+pi]; every round outside it is synchronous.  Execution
of round r is a send phase (everyone awake at the beginning of r sends,
Byzantine messages come from the adversary strategy) followed by a receive
phase: every process awake at the end of r (equivalently, at the beginning
of r+1) receives from its queue.  Under synchrony that is every message
not yet received; in an asynchronous round the strategy picks an arbitrary
subset, except that a process's own messages always reach it.

A send is stored once, not once per receiver.  ``World`` appends it to
one send log, ``sent``, and a delivery names the sends it hands over by
their indices in that log.  A cohort's proposal is kept in the log as its
run's event until something reads its entry (``sent``, ``pending`` or an
asynchronous receive phase, whose strategy is shown messages), which
builds the ``ProposeMsg``; a synchronous round reads none.  ``World``
keeps the index below which every entry is built, and a read scans only
past it.  Process q has
a cursor, the index of the first send it has not received, and a held
list, the indices of the sends an asynchronous receive phase held back
from it, in send order.  Its queue is
the held list followed by the log from its cursor, and every receive phase
moves its cursor to the end of the log.  A sleeping process's cursor stays
put until its first awake receive phase; a Byzantine process never
receives again, so its cursor and held list are never read.

A synchronous receive phase is computed once.  A receiver that holds
nothing back is delivered the range of indices from its cursor to the end
of the log.  After the phase every receiver holds every message sent so
far, so ``World`` keeps one latest-vote store and one by-view proposal
store of all sends, copies each once per synchronous round, gives those
snapshots to every receiver as its stores and derives from the votes the
one graded-agreement view they all share.
The proposal snapshot holds only the views whose round-1 step is still to
come, and the proposal store drops the others, since no process reads them
again.  In an asynchronous round each receiver copies its stores (they may
be shared snapshots) before absorbing what the strategy let through, and
computes a view of its own.  Round 0 is no agreement instance (no
well-behaved process votes in it), so its receivers get an empty view.

The send phase is stepped once per cohort (see ``tob``).  ``World`` groups
the processes awake in a round by the key ``(id(pending_output),
id(proposals_seen), candidate)``, with ``None`` for the candidate unless the
output is empty, as a step reads a member's candidate only when its output
is empty.  The states hold both objects throughout the send phase, which
replaces neither, so no two live objects share an id while the keys are in
use and equal keys mean one output and one store.  A synchronous receive
phase hands every receiver the same output and proposal snapshot, so after
one the round is a single cohort, unless the output is empty and some
candidates differ (a process that slept through a round-1 step keeps an
older one).

A round is recorded the way ``trace.jsonl`` states it: one event per run
of processes that state one fact, which the trace writes as one line
(``cli.trace_lines``).  The send phase records every decision, then every
vote, then every proposal, each in pid order, then the strategy's
messages.  A run names at least one process, so a round 0 with no
well-behaved process awake sends only the strategy's messages.  The runs
are the deciders of one log, the voters for one log,
the proposers for one view of one log or of one base that each extends by
its own value ``Value(view, sender, view)``, and the receivers handed one
range of send ids; with one cohort, each is the cohort, and with several
the members are merged in pid order and equal neighbours join.  A
strategy's message joins the last event when it states that event's fact.
A cohort's proposals are one fact: its base, its members and their
tickets.  Round 1 ranks that run without building its members' logs
(``tob.round1_vote_log``), and the event is what the proposal store
holds, beside any proposal a receiver took one by one.

The adversary's messages are checked once, where they enter the run, by
``ga.check_adversary_message``: a message whose sender is not Byzantine in
its round, a vote that does not carry the current round, or a proposal
whose lottery ticket is not ``vrf_eval(seed, sender, view)`` raises
``ForgeryError``.  ``World`` hands the same seed to the step functions that
draw the well-behaved processes' tickets, and delivery never hands over a
message that was not queued, so every proposal a process holds carries a
genuine ticket and no receiver verifies one.

Every run setting has one source: the seed is ``World.seed``, and the vote
expiry window and every model bound are read from ``schedule.params``.
Runs are deterministic functions of (schedule, strategy, seed) and record
a full trace: sends, deliveries, decisions, and one agreement record per
round for the oracles.  The send, delivery and decide events are named
tuples.  Like the messages, each equals the plain tuple of its fields, so
a ``DecideEvent(3, (3,), log)`` equals ``DeliverEvent(3, (3,), log)``;
``Trace`` selects events by class, and nothing in the package compares an
event with a message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from . import model_checks
from .core import (
    EMPTY_LOG,
    Log,
    ProcessId,
    ProposeMsg,
    Value,
    VoteMsg,
    is_chain,
    is_prefix,
    new_record,
    vrf_eval,
)
from .ga import (
    GaOutput,
    GaRecord,
    InitialVoteSet,
    ReceiverView,
    check_adversary_message,
    delivered,
    grade,
    keep_latest,
    merge_latest,
)
from .model_checks import ModelParams, _union, churn_ok, ratio_ok
from .tob import (
    ProcessState,
    latest_unexpired,
    step_round1,
    step_round2,
    step_view0,
    view_of,
)

Msg = VoteMsg | ProposeMsg

_NO_INSTANCE = ReceiverView(InitialVoteSet(), frozenset(), GaOutput(), 0)


class ScheduleError(Exception):
    """Schedule violates a structural invariant."""


class InfeasibleScheduleError(Exception):
    """No schedule satisfying the requested constraints was found."""


def _check_process_count(n: int) -> None:
    if n < 1:
        raise ScheduleError(f"need at least 1 process, got n = {n}")


@dataclass(frozen=True)
class Schedule:
    """Adversary-chosen environment for one run.

    ``awake_honest`` and ``byzantine`` hold beginning-of-round sets for
    rounds 0..horizon (one extra entry: who is awake at the end of the last
    executed round), H_r as ``awake_honest[r]`` and B_r as ``byzantine[r]``.
    Readers index them directly, and combine a window of rounds with one set
    operation over a slice.  ``awake(r)`` is H_r | B_r.  Synchrony is
    derived, not stored: the asynchronous rounds are exactly
    ``window_rounds``, [r_a+1, r_a+pi] when a window exists, every other
    round is synchronous, and ``sync(r)`` tells which.  ``pi`` and every
    other model parameter are read from ``params``.  ``model_report`` is
    ``model_checks.check_all``'s report, kept once it is computed.
    """

    n: int
    horizon: int
    awake_honest: tuple[frozenset[ProcessId], ...]
    byzantine: tuple[frozenset[ProcessId], ...]
    r_a: int | None
    params: ModelParams
    model_report: model_checks.ModelReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def pi(self) -> int:
        return self.params.pi

    def awake(self, r: int) -> frozenset[ProcessId]:
        return self.awake_honest[r] | self.byzantine[r]

    def sync(self, r: int) -> bool:
        return r not in self.window_rounds

    def validate(self) -> None:
        _check_process_count(self.n)
        if self.horizon < 1:
            raise ScheduleError("horizon must be at least 1 round")
        if len(self.awake_honest) != self.horizon + 1:
            raise ScheduleError("awake sets must cover rounds 0..horizon inclusive")
        if len(self.byzantine) != self.horizon + 1:
            raise ScheduleError("byzantine sets must cover rounds 0..horizon inclusive")
        if not any(self.awake_honest):
            raise ScheduleError("no well-behaved process is awake in any round")
        for r in range(self.horizon + 1):
            ids = self.awake_honest[r] | self.byzantine[r]
            if ids and (min(ids) < 0 or max(ids) >= self.n):
                raise ScheduleError(f"round {r} names a process outside [0, {self.n})")
            if self.awake_honest[r] & self.byzantine[r]:
                raise ScheduleError(f"round {r} marks a process both honest and Byzantine")
        for r in range(self.horizon):
            if not self.byzantine[r] <= self.byzantine[r + 1]:
                raise ScheduleError("Byzantine sets must be constant or growing")
        if self.r_a is None:
            if self.pi != 0:
                raise ScheduleError("a window length needs a last synchronous round r_a")
        elif self.r_a < 0:
            raise ScheduleError(f"the last synchronous round r_a must be >= 0, got {self.r_a}")
        elif self.pi < 1:
            raise ScheduleError("a window at r_a must have positive length")
        elif self.r_a + self.pi + 1 >= self.horizon:
            raise ScheduleError("window must end before the final round")

    @property
    def window_rounds(self) -> range:
        if self.r_a is None:
            return range(0)
        return range(self.r_a + 1, self.r_a + self.pi + 1)


def constant_schedule(
    n: int,
    horizon: int,
    n_byz: int,
    params: ModelParams,
    *,
    r_a: int | None = None,
) -> Schedule:
    """Full-participation schedule: every well-behaved process awake, fixed
    Byzantine set (the top ids), single optional window."""
    byz = frozenset(range(n - n_byz, n))
    honest = frozenset(range(n - n_byz))
    return Schedule(
        n=n,
        horizon=horizon,
        awake_honest=tuple([honest] * (horizon + 1)),
        byzantine=tuple([byz] * (horizon + 1)),
        r_a=r_a,
        params=params,
    )


class SendEvent(NamedTuple):
    """A run of sends of one round that state one fact, ``senders[k]``
    sending id ``first + k``.  With ``view`` None they are votes of
    ``round`` for ``log``.  Otherwise they are proposals for ``view``, each
    of ``log`` or, with ``extends``, of ``log`` extended by the sender's own
    value ``Value(view, sender, view)``, the k-th with ticket ``tickets[k]``
    (a vote run holds no tickets)."""

    round: int
    first: int
    senders: tuple[ProcessId, ...]
    log: Log
    view: int | None
    extends: bool
    tickets: tuple[int, ...]

    def proposal(self, k: int) -> ProposeMsg:
        """The proposal of the ``k``-th sender of a proposal run."""
        p, view = self.senders[k], self.view
        log = self.log.extended(new_record(Value, (view, p, view))) if self.extends else self.log
        return new_record(ProposeMsg, (p, view, log, self.tickets[k]))


class DeliverEvent(NamedTuple):
    """A receive phase of each of ``receivers``: the indices, among the
    run's sends, of the messages each took from its held list and the send
    log past its cursor, in send order (none, if there were none or all
    were held back).  Synchronous receivers that held nothing back get
    ``range(cursor, end)``, and a run of them with one range is one event;
    any other receiver gets a tuple, in an event of its own."""

    round: int
    receivers: tuple[ProcessId, ...]
    ids: Sequence[int]


class DecideEvent(NamedTuple):
    """The processes ``pids``, a run in pid order, deciding ``log``."""

    round: int
    pids: tuple[ProcessId, ...]
    log: Log


Event = SendEvent | DeliverEvent | DecideEvent | GaRecord


@dataclass(frozen=True)
class Trace:
    """Append-only event log of one run, in round order, plus the context to
    interpret it.

    Events of different kinds may be equal tuples, so they are selected by
    class, never by value.  The accessors return the events as recorded, one
    per run of processes sharing a fact, in fresh lists, so callers may
    modify what they get.  The decide events, the decision timeline and the
    distinct decided logs are worked out once, on first use, and shared by
    every oracle that reads them, so the timeline must not be modified.
    """

    schedule: Schedule
    strategy_name: str
    events: tuple[Event, ...]

    @property
    def horizon(self) -> int:
        return self.schedule.horizon

    @cached_property
    def _decides(self) -> list[DecideEvent]:
        return [e for e in self.events if type(e) is DecideEvent]

    @cached_property
    def _first_decided(self) -> dict[Log, int]:
        """Each distinct decided log, in order of first decision, with the
        round it was first decided in."""
        first: dict[Log, int] = {}
        for e in self._decides:
            first.setdefault(e.log, e.round)
        return first

    @cached_property
    def _input_rounds(self) -> dict[Value, int]:
        """The last value of each well-behaved proposal, read off its run:
        the sender's own ``Value(view, sender, view)`` in a run that extends
        a base, the run's log's last value in any other."""
        rounds: dict[Value, int] = {}
        for e in self.propose_sends():
            honest = self.schedule.awake_honest[e.round]
            for p in e.senders:
                if p in honest and (e.extends or e.log):
                    own = new_record(Value, (e.view, p, e.view))
                    rounds.setdefault(own if e.extends else e.log.values[-1], e.round)
        return rounds

    @cached_property
    def decision_timeline(self) -> dict[ProcessId, list[tuple[int, Log]]]:
        """Per process, in round order, the round of each of its decisions
        and the log it has delivered after it: the decided log, unless that
        is a prefix of the log already delivered, which then stays."""
        timeline: dict[ProcessId, list[tuple[int, Log]]] = {}
        for e in self._decides:
            for pid in e.pids:
                points = timeline.setdefault(pid, [])
                prev = points[-1][1] if points else EMPTY_LOG
                points.append((e.round, prev if is_prefix(e.log, prev) else e.log))
        return timeline

    @cached_property
    def decisions_form_chain(self) -> bool:
        """Whether the distinct logs decided in the trace are pairwise
        compatible (``core.is_chain``)."""
        return is_chain(self._first_decided)

    def decide_events(self) -> list[DecideEvent]:
        return list(self._decides)

    def send_events(self) -> list[SendEvent]:
        return [e for e in self.events if type(e) is SendEvent]

    def vote_sends(self) -> list[SendEvent]:
        return [e for e in self.events if type(e) is SendEvent and e.view is None]

    def propose_sends(self) -> list[SendEvent]:
        return [e for e in self.events if type(e) is SendEvent and e.view is not None]

    def ga_records(self) -> dict[int, GaRecord]:
        return {e.round: e for e in self.events if type(e) is GaRecord}

    def decided_up_to(self, r: int) -> list[Log]:
        """Distinct logs decided by well-behaved processes in rounds <= r."""
        return [log for log, first in self._first_decided.items() if first <= r]

    def first_input_round(self, value: Value) -> int | None:
        """Round in which ``value`` was introduced: its first appearance as
        the fresh tip of a proposal from a well-behaved process."""
        return self._input_rounds.get(value)

    def inputs_since(self, r: int) -> set[Value]:
        """Values introduced in round ``r`` or later (``first_input_round``)."""
        return {v for v, first in self._input_rounds.items() if first >= r}


StrategyMessages = Callable[["World", int], Sequence[Msg]]
StrategyFilter = Callable[["World", int, ProcessId, Sequence[Msg]], Iterable[Msg]]


@dataclass(frozen=True)
class AdversaryStrategy:
    """Byzantine behavior: a per-round message generator plus a delivery
    filter consulted only in asynchronous rounds."""

    name: str
    messages: StrategyMessages
    delivery_filter: StrategyFilter
    validate: Callable[["World"], None] | None = None


def null_strategy() -> AdversaryStrategy:
    return AdversaryStrategy(
        name="none",
        messages=lambda world, r: [],
        delivery_filter=lambda world, r, q, cand: cand,
    )


def _join(runs: list, key: object, senders: list[ProcessId], items: list) -> None:
    """Append a run in the making, ``(key, senders, items)``, to ``runs``,
    or extend the last run if its key is ``key``.  A run of sends is keyed
    ``(view, log, extends)``, as a ``SendEvent`` holds them, and its items
    are its votes or tickets; a run of deciders is keyed by its log.  Runs
    are joined here, in lists, before ``World._send`` records them; its own
    join, of a strategy's message to the last event, copies the event."""
    if runs and runs[-1][0] == key:
        runs[-1][1].extend(senders)
        runs[-1][2].extend(items)
    else:
        runs.append((key, list(senders), list(items)))


def _run_of(msg: Msg) -> tuple:
    """A message as a run of one: a vote keyed by its log, a proposal by
    its base when its last value is its sender's own, else by its log."""
    if isinstance(msg, VoteMsg):
        return (None, msg.log, False), [msg.sender], [msg]
    log, view = msg.log, msg.view
    own = bool(log) and log.values[-1] == (view, msg.sender, view)
    return (view, log.parent if own else log, own), [msg.sender], [msg.ticket]


class World:
    """Deterministic single-run event loop."""

    def __init__(self, schedule: Schedule, strategy: AdversaryStrategy, seed: int):
        schedule.validate()
        self.schedule = schedule
        self.strategy = strategy
        self.seed = seed
        self.states: dict[ProcessId, ProcessState] = {
            p: ProcessState(pid=p) for p in range(schedule.n)
        }
        # one entry per send id, in send order: a vote or the run of a
        # proposal not yet read (see ``sent``); process q has received
        # [:cursor[q]] except for the indices held[q], which an asynchronous
        # receive phase held back from it
        self._entries: list[Msg | SendEvent] = []
        self._unbuilt = 0  # every entry below this index is a message
        self.cursor: list[int] = [0] * schedule.n
        self.held: list[list[int]] = [[] for _ in range(schedule.n)]
        self.round: int | None = None  # the last round stepped
        # every vote sent so far, folded with ga.keep_latest
        self.votes: dict[ProcessId, tuple[int, VoteMsg | None]] = {}
        # every proposal sent so far, by view, as the run it was sent in, for
        # the views whose round-1 step has not passed by the last synchronous
        # receive phase
        self.proposals: dict[int, set[SendEvent]] = {}
        self.events: list[Event] = []
        if strategy.validate is not None:
            strategy.validate(self)

    def _send(self, r: int, runs: list) -> None:
        """Send ``runs`` in round ``r``, in order: record each as one event,
        or as the last event extended when it states the same fact (a
        strategy's message after a cohort's run, say), fold its votes, or
        the event itself, into the stores and append one entry per sender
        to the send log."""
        events, votes, proposals, entries = self.events, self.votes, self.proposals, self._entries
        for (view, log, extends), senders, items in runs:
            last, tickets = events[-1] if events else None, () if view is None else tuple(items)
            if (type(last) is SendEvent
                    and (last.round, last.log, last.view, last.extends) == (r, log, view, extends)):
                proposals.get(view, set()).discard(last)
                event = events[-1] = last._replace(senders=last.senders + tuple(senders),
                                                   tickets=last.tickets + tickets)
            else:
                event = new_record(SendEvent, (r, len(entries), tuple(senders), log, view, extends,
                                               tickets))
                events.append(event)
            if view is None:
                for vote in items:
                    keep_latest(votes, vote)
                entries += items
            else:
                proposals.setdefault(view, set()).add(event)
                entries += repeat(event, len(senders))

    def _built(self, start: int) -> list[Msg]:
        """The send log, every entry from index ``start`` on a message: the
        first read of a proposal's entry builds it from its run.  Entries
        below ``_unbuilt`` are built already and are not scanned again."""
        entries, unbuilt = self._entries, self._unbuilt
        for i in range(max(start, unbuilt), len(entries)):
            if type(e := entries[i]) is SendEvent:
                entries[i] = e.proposal(i - e.first)
        self._unbuilt = len(entries) if start <= unbuilt else unbuilt
        return entries

    @property
    def sent(self) -> list[Msg]:
        """Every message sent so far, in send order, one per send id; the
        read builds each proposal still held as its run."""
        return self._built(0)

    @property
    def pending(self) -> dict[ProcessId, list[Msg]]:
        """Each process's queue, in send order: what its next receive phase
        chooses from.  Derived afresh on every read, which builds the
        proposals queued; empty for a process Byzantine in the last round
        stepped, which never receives again."""
        byz = self.schedule.byzantine[self.round] if self.round is not None else frozenset()
        sent = self._built(min(self.cursor))
        return {
            q: [] if q in byz else [sent[i] for i in self.held[q]] + sent[self.cursor[q]:]
            for q in range(self.schedule.n)
        }

    def _receive(self, store: dict[ProcessId, tuple[int, VoteMsg | None]], r: int) -> ReceiverView:
        """The round-``r`` graded-agreement view of a receiver holding ``store``;
        empty in round 0, which is no instance."""
        if r == 0:
            return _NO_INSTANCE
        initial, current = latest_unexpired(store, r, self.schedule.params.eta)
        merged = merge_latest(initial, current)
        return ReceiverView(initial, current, grade(merged), len(merged))

    def step_round(self, r: int) -> None:
        """Execute the send and receive phases of round ``r``."""
        sched, states, events = self.schedule, self.states, self.events
        this_view = view_of(r)
        runs: list = []

        if r == 0:
            # a run holds at least one sender, and round 0 may have none
            if pids := sorted(sched.awake_honest[r]):
                genesis, tickets = step_view0([states[p] for p in pids], self.seed)
                runs.append(((1, genesis, False), pids, tickets))
        else:
            # a process awake at r received in round r - 1, so its pending
            # output is that round's; the ids in a key name objects the
            # states hold throughout the send phase, and a step reads the
            # candidate only when the output is empty
            cohorts: dict[tuple[int, int, Log | None], list[ProcessState]] = {}
            for p in sorted(sched.awake_honest[r]):
                state = states[p]
                output = state.pending_output
                stale = None if output else state.candidate
                cohorts.setdefault((id(output), id(state.proposals_seen), stale), []).append(state)
            round1 = r % 2 == 1
            # per cohort: its decision (round 1) or proposal base, its votes
            # and its tickets
            facts: list[tuple[Log | None, list[VoteMsg], Sequence[int]]] = []
            for cohort in cohorts.values():
                outputs = cohort[0].pending_output
                if round1:
                    props = cohort[0].proposals_seen.get(this_view, ())
                    facts.append((*step_round1(cohort, this_view, outputs, props), ()))
                else:
                    facts.append(step_round2(cohort, this_view, outputs, self.seed))
            if len(facts) > 1:
                # one fact per member, in pid order; equal neighbours join
                facts = sorted(((x, [vote], tickets[k:k + 1]) for x, votes, tickets in facts
                                for k, vote in enumerate(votes)), key=lambda f: f[1][0].sender)
            # the decisions, then the votes, then the proposals, each in pid order
            decides, proposals = [], []
            for x, votes, tickets in facts:
                pids = [vote.sender for vote in votes]
                _join(runs, (None, votes[0].log, False), pids, votes)
                if not round1:
                    _join(proposals, (this_view + 1, x, True), pids, tickets)
                elif x is not None:
                    _join(decides, x, pids, [])
            events.extend(new_record(DecideEvent, (r, tuple(pids), log))
                          for log, pids, _ in decides)
            runs += proposals
            inputs = {vote.sender: vote.log for _, votes, _ in facts for vote in votes}

        self._send(r, runs)
        strategy_msgs = tuple(self.strategy.messages(self, r))
        for msg in strategy_msgs:
            check_adversary_message(msg, r, sched.byzantine[r], self.seed)
        self._send(r, list(map(_run_of, strategy_msgs)))

        receivers = sorted(sched.awake_honest[r + 1])
        if synchronous := sched.sync(r):
            # every receiver takes its whole queue, which holds every send it
            # has not yet received, so each ends up holding every message
            # sent: one pair of stores and one view serve them all
            store = dict(self.votes)
            # view v's proposals are read at round 2v - 1, which is still to
            # come exactly when v > view_of(r)
            self.proposals = {v: s for v, s in self.proposals.items() if v > this_view}
            by_view = {v: frozenset(s) for v, s in self.proposals.items()}
            shared = self._receive(store, r)
        else:
            # the strategy is shown messages, so every queued proposal is built
            sent = self._built(min((self.cursor[q] for q in receivers), default=0))
        views: dict[ProcessId, ReceiverView] = {}
        deliveries: list[tuple[Sequence[int], list[ProcessId]]] = []
        end = len(self._entries)
        for q in receivers:
            state = self.states[q]
            start, held = self.cursor[q], self.held[q]
            if synchronous:
                ids = (*held, *range(start, end)) if held else range(start, end)
                held.clear()
                state.votes_seen = store
                state.proposals_seen = by_view
                view = shared
            else:
                queued = [*held, *range(start, end)]
                shown = tuple(map(sent.__getitem__, queued))
                chosen = self.strategy.delivery_filter(self, r, q, shown)
                kept, self.held[q] = delivered(q, sent, queued, chosen)
                ids = tuple(kept)
                # either store may be a shared snapshot
                state.votes_seen = dict(state.votes_seen)
                state.proposals_seen = {v: set(s) for v, s in state.proposals_seen.items()}
                for i in kept:
                    state.absorb(sent[i])
                view = self._receive(state.votes_seen, r)
            self.cursor[q] = end
            if type(ids) is range and deliveries and deliveries[-1][0] == ids:
                deliveries[-1][1].append(q)  # receivers of one range are one event
            else:
                deliveries.append((ids, [q]))
            state.pending_output = view.output
            views[q] = view
        events.extend(new_record(DeliverEvent, (r, tuple(qs), ids)) for ids, qs in deliveries)

        self.round = r
        if r >= 1:
            self.events.append(GaRecord(
                round=r,
                synchronous=synchronous,
                inputs=inputs,
                byzantine=sched.byzantine[r],
                receivers=views,
            ))

    def run(self) -> Trace:
        for r in range(self.schedule.horizon):
            self.step_round(r)
        return Trace(
            schedule=self.schedule,
            strategy_name=self.strategy.name,
            events=tuple(self.events),
        )


def run(schedule: Schedule, strategy: AdversaryStrategy, seed: int) -> Trace:
    """Run one complete, deterministic simulation."""
    return World(schedule, strategy, seed).run()


def window_attack(
    name: str, base: int, k: int, proposes: bool, validate: Callable[[World], None] | None = None
) -> AdversaryStrategy:
    """The window attacks: in each asynchronous round every Byzantine process
    votes for each of ``k`` one-value target logs, which conflict with every
    honest chain (honest logs all start from the shared genesis value); with
    ``proposes`` it also proposes each target on round-2 rounds, for the next
    view.  Receiver ``q`` is shown only Byzantine messages for target
    ``q mod k``, so all honest-to-honest delivery is suppressed."""

    def targets(sched: Schedule) -> list[Log]:
        assert sched.r_a is not None
        proposer = min(sched.byzantine[sched.r_a + 1], default=0)
        view = view_of(sched.r_a + 1)
        return [Log((Value(base + i + view, proposer, view),)) for i in range(k)]

    def messages(world: World, r: int) -> list[Msg]:
        sched = world.schedule
        if r not in sched.window_rounds:
            return []
        logs = targets(sched)
        out: list[Msg] = []
        for b in sorted(sched.byzantine[r]):
            out.extend(VoteMsg(b, r, log) for log in logs)
            if proposes and r % 2 == 0:
                view = view_of(r) + 1
                ticket = vrf_eval(world.seed, b, view)
                out.extend(ProposeMsg(b, view, log, ticket) for log in logs)
        return out

    def delivery_filter(world: World, r: int, q: ProcessId, cand: Sequence[Msg]) -> list[Msg]:
        byz = world.schedule.byzantine[r]
        mine = targets(world.schedule)[q % k]
        return [m for m in cand if m.sender in byz and m.log == mine]

    return AdversaryStrategy(name, messages, delivery_filter, validate)


def _two_byzantine_in_window(world: World) -> None:
    sched = world.schedule
    if any(len(sched.byzantine[r]) < 2 for r in sched.window_rounds):
        raise ValueError("the suppression attack needs at least two Byzantine processes")


def strategy_prop1() -> AdversaryStrategy:
    """Suppress all honest-to-honest delivery and push votes (and proposals,
    on round-2 rounds) for one conflicting log."""
    return window_attack("prop1", 10_000, 1, proposes=True, validate=_two_byzantine_in_window)


def strategy_split_decision() -> AdversaryStrategy:
    """Show the even honest receivers unanimous votes for one value and the
    odd ones votes for a different value."""
    return window_attack("split_decision", 20_000, 2, proposes=False)


STRATEGIES: dict[str, Callable[[], AdversaryStrategy]] = {
    "none": null_strategy,
    "prop1": strategy_prop1,
    "split_decision": strategy_split_decision,
}


def generate_schedule(
    n: int,
    horizon: int,
    params: ModelParams,
    r_a: int | None,
    seed: int,
    *,
    n_byz: int | None = None,
    max_attempts: int = 50,
) -> Schedule:
    """Sample a schedule satisfying every model constraint in ``params``,
    or raise ``InfeasibleScheduleError`` after bounded attempts.

    Churn moves are rejected locally whenever they would break the churn or
    failure-ratio bounds, the awake set is frozen around any asynchronous
    window so the window support conditions hold, and the result is passed
    through the full validator before being returned.  No process at all,
    a window not shorter than ``tau``, or a window that the schedule's
    structure cannot hold, raises ``ScheduleError`` at once, and a Byzantine count that breaks the
    failure ratio even with every process awake raises
    ``InfeasibleScheduleError`` at once.
    """
    _check_process_count(n)
    tau, pi, gamma, bt = params.tau, params.pi, params.gamma, params.beta_tilde
    if pi >= 1 and tau <= pi:
        raise ScheduleError(f"window must be shorter than the churn window (pi={pi}, tau={tau})")

    rng = random.Random(seed)
    frozen = range(max(0, r_a - tau), r_a + pi + 2) if r_a is not None else range(0)
    k = 0 if n_byz is None else n_byz
    # without n_byz: the largest Byzantine set the failure ratio tolerates at 3/4 turnout
    while n_byz is None and bt < 1 and ratio_ok(k + 1, k + 1 + ((n - k - 1) * 3) // 4, bt):
        k += 1
    pool = list(range(n - k))
    if not pool:
        raise InfeasibleScheduleError("no honest processes left after corruption")
    byz = frozenset(range(n - k, n))
    start = max(1, (len(pool) * 3) // 4)

    for _ in range(max_attempts):
        awake: list[frozenset[ProcessId]] = [frozenset(rng.sample(pool, start))]
        for r in range(1, horizon + 1):
            cur = set(awake[r - 1])
            if r in frozen:
                awake.append(frozenset(cur))
                continue
            for p in pool:
                if p not in cur and rng.random() < 0.25:
                    cur.add(p)
            if gamma > 0:
                droppable = sorted(cur)
                rng.shuffle(droppable)
                recent = _union(awake, r - tau, r - 1)
                for p in droppable[: rng.randint(0, 2)]:
                    trial = cur - {p}
                    ok = churn_ok(recent, trial, gamma) and ratio_ok(k, len(trial) + k, bt)
                    if ok and trial:
                        cur = trial
            if not ratio_ok(k, len(cur) + k, bt):
                cur |= set(pool)  # wake everyone rather than break the ratio
            awake.append(frozenset(cur))

        schedule = Schedule(
            n=n,
            horizon=horizon,
            awake_honest=tuple(awake),
            byzantine=tuple([byz] * (horizon + 1)),
            r_a=r_a,
            params=params,
        )
        schedule.validate()  # the structure does not depend on the draw
        if not ratio_ok(k, n, bt):
            raise InfeasibleScheduleError(
                f"no schedule satisfying the model constraints: {k} Byzantine of {n} "
                f"processes break the failure ratio {bt} even with every process awake"
            )
        if model_checks.check_all(schedule).all_pass:
            return schedule

    raise InfeasibleScheduleError(
        f"no schedule satisfying the model constraints after {max_attempts} attempts"
    )
