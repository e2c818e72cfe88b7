"""Shared builders for the tests: randomized schedules used by both the unit
tests and the acceptance suite, slice-based references for the log-tree
walks, graded outputs built from ``{log: grade}`` maps (``frontier``),
expanded back to them (``expand``) and read for their longest log
(``longest_any``), a trace reader's table of the logs a trace names
(``TraceLogs``), next to the output, tally and grading
they replaced (``ReferenceGaOutput``, ``reference_tally``,
``reference_grade``), the per-process round steps the cohort steps replaced
(``reference_step_round1``, ``reference_step_round2``), and one
graded-agreement instance run outside a ``World`` (``run_instance``), which
merges each receiver's votes through the receive computation ``World`` runs
(``store_merge``)."""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Collection, Iterable, Mapping, Sequence

from hypothesis import strategies as st

from sleepy_tob.core import (
    Log,
    ProcessId,
    ProposeMsg,
    Value,
    VoteMsg,
    is_chain,
    is_prefix,
    vrf_eval,
)
from sleepy_tob.ga import (
    ForgeryError,
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
from sleepy_tob.model_checks import ModelParams, beta_tilde
from sleepy_tob.tob import ProcessState, latest_unexpired, round1_vote_log
from sleepy_tob.world import Schedule


def sliced_prefixes(log: Log) -> list[Log]:
    """Every prefix of ``log``, shortest first, each built from a slice."""
    return [Log(log.values[:k]) for k in range(len(log) + 1)]


def fields_key(log: Log) -> tuple[tuple[int, int, int], ...]:
    """A log's tie-break order built by hand from its values' fields,
    independent of how ``Log`` and ``Value`` compare."""
    return tuple((v.id, v.proposer, v.view) for v in log.values)


def sliced_common_prefix(logs) -> Log:
    """The longest common prefix of a nonempty collection of logs, compared
    value by value."""
    seqs = [log.values for log in logs]
    shortest = min(seqs, key=len)
    k = 0
    while k < len(shortest) and all(s[k] == shortest[k] for s in seqs):
        k += 1
    return Log(shortest[:k])


def frontier(grades: Mapping[Log, int]) -> GaOutput:
    """The graded output that grades every prefix of a log in ``grades``,
    each at the highest grade of a log in ``grades`` it is a prefix of: its
    longest grade-1 log and its maximal logs, longest first, ties by value
    fields.  Raises ``ValueError`` unless the grade-1 logs form a chain."""
    grade1 = [log for log, g in grades.items() if g == 1]
    if not is_chain(grade1):
        raise ValueError("conflicting grade-1 logs have no frontier")
    tops = [a for a in grades if not any(a != b and is_prefix(a, b) for b in grades)]
    return GaOutput(
        max(grade1, key=len, default=None),
        tuple(sorted(tops, key=lambda log: (-len(log), fields_key(log)))),
    )


def longest_any(output: GaOutput) -> Log | None:
    """The longest log ``output`` grades, its first top, or ``None`` when it
    is empty."""
    return output.tops[0] if output.tops else None


def expand(output: GaOutput) -> dict[Log, int]:
    """Every log ``output`` grades, with its grade: the frontier closed
    under prefixes, the grade-1 log's prefixes at 1 and the rest of the
    tops' prefixes at 0."""
    out = dict.fromkeys(output.grade1.prefixes(), 1) if output.grade1 is not None else {}
    for top in output.tops:
        log = top
        while log is not None and log not in out:  # its prefixes are in out
            out[log] = 0
            log = log.parent
    return out


@dataclass
class TraceLogs:
    """The logs a ``trace.jsonl`` names, by id, as a reader of its lines
    rebuilds them: a ``log`` line states one, and a proposal line with a
    ``base`` states each of its senders' logs that no earlier line named."""

    logs: list[Log] = field(default_factory=list)
    parents: list[int | None] = field(default_factory=list)
    ids: dict[Log, int] = field(default_factory=dict)

    def __getitem__(self, i: int) -> Log:
        assert 0 <= i < len(self.logs)  # named before the first line naming it
        return self.logs[i]

    def name(self, log: Log, parent: int | None) -> None:
        """Give ``log``, which no line named yet, the next id."""
        assert log not in self.ids
        self.ids[log] = len(self.logs)
        self.logs.append(log)
        self.parents.append(parent)

    def read_log_line(self, payload: dict) -> None:
        assert payload["id"] == len(self.logs)
        if payload["parent"] is None:
            assert payload["value"] is None
            self.name(Log(), None)
        else:
            self.name(self[payload["parent"]].extended(Value(**payload["value"])),
                      payload["parent"])

    def proposals(self, obj: dict, seed: int) -> list[ProposeMsg]:
        """The proposals a proposal ``send`` line states, one per sender in
        its actor list, each with the ticket ``seed`` draws for it.  With a
        ``base``, a sender's log is the base extended by its own value, and
        one that no line named yet takes the next id."""
        msg = obj["payload"]["msg"]
        assert msg["type"] == "propose" and type(obj["actor"]) is list
        assert len(msg) == 3 and ("base" in msg) != ("log" in msg)
        view = msg["view"]
        sent = []
        for p in obj["actor"]:
            if "base" in msg:
                log = self[msg["base"]].extended(Value(view, p, view))
                if log not in self.ids:
                    self.name(log, msg["base"])
            else:
                log = self[msg["log"]]
            sent.append(ProposeMsg(p, view, log, vrf_eval(seed, p, view)))
        return sent


# ---------------------------------------------------------------------------
# the graded output as it was: every graded prefix in a dict, kept verbatim
# (renamed, and ``tally`` given the name ``reference_tally``)


def reference_tally(msgs: Iterable[VoteMsg]) -> dict[Log, int]:
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
class ReferenceGaOutput:
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


def reference_grade(msgs: Collection[VoteMsg]) -> ReferenceGaOutput:
    """Grade a merged vote set: a collection of at most one message per
    sender."""
    m = len(msgs)
    grades: dict[Log, int] = {}
    for log, count in reference_tally(msgs).items():
        if 3 * count > 2 * m:
            grades[log] = 1
        elif 3 * count > m:
            grades[log] = 0
    return ReferenceGaOutput(grades)


def random_bounded_schedule(rng: random.Random) -> Schedule:
    """Random schedule whose churn moves and Byzantine sizing are validated
    against the churn and failure-ratio bounds as it is built."""
    n = rng.randint(6, 24)
    tau = rng.randint(0, 5)
    gamma = Fraction(rng.randint(0, 25), 100)
    beta = Fraction(rng.choice([1, 1, 1, 2]), rng.choice([3, 3, 3, 4]))
    if gamma >= beta:
        gamma = beta - Fraction(1, 100)
    horizon = rng.randint(3, 10)
    bt = beta_tilde(beta, gamma)
    k = 0
    while (k + 1) * (1 - bt) < bt * max(1, (n - k - 1) * 3 // 4) and k < n - 2:
        k += 1
    byz = frozenset(range(n - k, n))
    honest_pool = list(range(n - k))
    awake = [set(rng.sample(honest_pool, max(1, len(honest_pool) * 3 // 4)))]
    for r in range(1, horizon + 1):
        cur = set(awake[-1])
        for p in honest_pool:
            if p not in cur and rng.random() < 0.3:
                cur.add(p)
        if tau > 0 and gamma > 0:
            recent = set().union(*awake[max(0, r - tau):])
            for p in sorted(cur)[: rng.randint(0, 2)]:
                trial = cur - {p}
                if (
                    trial
                    and len(recent - trial) <= gamma * len(recent)
                    and k < bt * (len(trial) + k)
                ):
                    cur = trial
        if not k < bt * (len(cur) + k):
            cur |= set(honest_pool)
        awake.append(cur)
    params = ModelParams(tau=tau, eta=tau, pi=0, gamma=gamma, beta=beta)
    return Schedule(
        n=n,
        horizon=horizon,
        awake_honest=tuple(frozenset(a) for a in awake),
        byzantine=tuple([byz] * (horizon + 1)),
        r_a=None,
        params=params,
    )


def reference_step_round1(
    state: ProcessState,
    view: int,
    outputs: GaOutput,
    proposals: Iterable[ProposeMsg],
    picks: dict[tuple[int, Log], Log],
) -> tuple[Log | None, VoteMsg]:
    """Round 2v-1: decide, refresh the candidate, and vote a proposal.

    ``proposals`` are the proposals for ``view`` this process holds; they
    may be shared with other processes and are not changed.  Returns the
    decided log (the longest grade-1 output, or ``None``) and the vote this
    process multicasts, whose log is ``round1_vote_log`` of the proposals
    and the refreshed candidate.  Falling back to the candidate, and never
    voting a strict prefix of it, keeps the vote extending anything this
    process has decided.

    ``picks`` memoises that log by (``id(proposals)``, candidate) for one
    round; the caller keeps every proposal collection it passes alive while
    the dict is in use, so an id names one collection.
    """
    longest = longest_any(outputs)
    if longest is not None:
        state.candidate = longest
    key = (id(proposals), state.candidate)
    vote_log = picks.get(key)
    if vote_log is None:
        vote_log = picks[key] = round1_vote_log(proposals, state.candidate)
    return outputs.grade1, VoteMsg(state.pid, 2 * view - 1, vote_log)


def reference_step_round2(
    state: ProcessState, view: int, outputs: GaOutput, seed: int
) -> tuple[VoteMsg, ProposeMsg]:
    """Round 2v: vote the longest grade-1 output and propose for view v+1,
    with the run ``seed``'s lottery ticket.

    An empty tally (possible only for a process that woke mid-view and was
    shown nothing) falls back to the stale candidate for both the vote and
    the proposal base.
    """
    vote_log = outputs.grade1
    if vote_log is None:
        vote_log = state.candidate
    head = longest_any(outputs)
    if head is None:
        head = state.candidate
    fresh = Value(view + 1, state.pid, view + 1)
    proposal = ProposeMsg(
        state.pid,
        view + 1,
        head.extended(fresh),
        vrf_eval(seed, state.pid, view + 1),
    )
    return VoteMsg(state.pid, 2 * view, vote_log), proposal


def store_merge(
    r: int, initial: InitialVoteSet, round_msgs: Iterable[VoteMsg]
) -> frozenset[VoteMsg]:
    """The votes a receiver holding ``initial`` and the round-``r`` votes
    ``round_msgs`` counts, as ``World`` computes them: every vote folded
    into one store with ``ga.keep_latest``, the store split by
    ``tob.latest_unexpired`` with no expiry, and the halves merged by
    ``ga.merge_latest``."""
    store: dict[ProcessId, tuple[int, VoteMsg | None]] = {}
    for msg in (*initial.messages, *round_msgs):
        keep_latest(store, msg)
    return merge_latest(*latest_unexpired(store, r, None))


MERGE_LOGS = [
    Log((Value(1, 0, 1),)),
    Log((Value(2, 0, 1),)),
    Log((Value(1, 0, 1), Value(3, 1, 2))),
]


@st.composite
def merge_inputs(draw, equivocation: bool | None = None):
    """A round ``r``, an initial set of at most one older vote per sender,
    and round-``r`` votes, among them senders voting two different logs and
    equal copies of one vote, some sharing no object with it.

    With ``equivocation`` False no sender votes two different logs in the
    round; with it True at least one sender does."""
    r = draw(st.integers(1, 6))
    logs = st.sampled_from(MERGE_LOGS)
    older = draw(st.dictionaries(st.integers(0, 5), st.tuples(st.integers(0, r - 1), logs)))
    initial = InitialVoteSet(frozenset(VoteMsg(s, rnd, log) for s, (rnd, log) in older.items()))
    if equivocation is None:
        votes = st.builds(VoteMsg, st.integers(0, 5), st.just(r), logs)
        round_msgs = draw(st.lists(votes, max_size=10))
    else:
        one_each = draw(st.dictionaries(st.integers(0, 5), logs, max_size=6))
        round_msgs = [VoteMsg(s, r, log) for s, log in one_each.items()]
    if equivocation:
        s = draw(st.integers(0, 5))
        first = one_each.get(s)
        if first is None:
            first = draw(logs)
            round_msgs.append(VoteMsg(s, r, first))
        second = draw(st.sampled_from([log for log in MERGE_LOGS if log != first]))
        round_msgs.append(VoteMsg(s, r, second))
    if round_msgs:
        repeats = draw(st.lists(st.sampled_from(round_msgs), max_size=3))
        round_msgs += [VoteMsg(m.sender, r, Log(m.log.values)) for m in repeats]
    return r, initial, draw(st.permutations(round_msgs))


def run_instance(
    round: int,
    inputs: Mapping[ProcessId, Log],
    byz_msgs: Sequence[VoteMsg] = (),
    initial_sets: Mapping[ProcessId, InitialVoteSet] | None = None,
    *,
    receivers: Iterable[ProcessId] | None = None,
    byzantine: Iterable[ProcessId] | None = None,
    delivery: Callable[[ProcessId, Sequence[VoteMsg]], Iterable[VoteMsg]] | None = None,
) -> GaRecord:
    """Run one graded-agreement instance end to end and return its record.

    ``inputs`` maps each well-behaved sender to its input log; ``byz_msgs``
    are adversarial votes for this round; ``initial_sets`` carry each
    receiver's older votes.  The record is synchronous exactly when no
    ``delivery`` is given: then every sent message reaches every receiver.
    Otherwise ``delivery`` picks the subset each receiver sees, filtered
    through ``ga.delivered``: a receiver always gets the votes it sent
    itself, and never a vote that was not sent.  Each view's ``initial`` and
    ``received`` are the receiver's initial set and delivered votes as
    given; its output grades ``store_merge`` of them.
    """
    initial_sets = dict(initial_sets or {})
    byz_set = (
        frozenset(byzantine)
        if byzantine is not None
        else frozenset(m.sender for m in byz_msgs)
    )
    for msg in byz_msgs:
        if msg.sender in inputs:
            raise ForgeryError(f"adversary vote from {msg.sender}, which has an input log")
        check_adversary_message(msg, round, byz_set, seed=0)  # votes carry no ticket

    sent: list[VoteMsg] = [
        VoteMsg(sender=p, round=round, log=log) for p, log in sorted(inputs.items())
    ]
    sent.extend(byz_msgs)

    if receivers is None:
        receiver_ids = sorted(set(inputs) | set(initial_sets))
    else:
        receiver_ids = sorted(set(receivers))

    views: dict[ProcessId, ReceiverView] = {}
    for q in receiver_ids:
        initial = initial_sets.get(q, InitialVoteSet())
        if any(m.round >= round for m in initial.messages):
            raise ValueError("initial set contains messages not strictly older than the round")
        if delivery is None:
            got = sent
        else:
            kept, _ = delivered(q, sent, range(len(sent)), delivery(q, tuple(sent)))
            got = [sent[i] for i in kept]
        merged = store_merge(round, initial, got)
        views[q] = ReceiverView(
            initial=initial,
            received=frozenset(got),
            output=grade(merged),
            m=len(merged),
        )

    return GaRecord(
        round=round,
        synchronous=delivery is None,
        inputs=dict(sorted(inputs.items())),
        byzantine=byz_set,
        receivers=views,
    )
