"""Post-hoc verifiers over traces and agreement records.

Every check here re-derives what it needs from recorded evidence (sent
votes, deliveries, initial sets, decide events) rather than trusting
protocol internals; the tally used for cross-checks is an independent
brute-force reimplementation on exact rationals.  Verdicts are
three-valued -- pass, fail, or not-applicable/inconclusive -- so checks
whose assumptions do not hold in a given run can never produce spurious
failures, and probabilistic liveness can be reported honestly.

The agreement properties are decided on each output's frontier, its
``grade1`` and its ``tops`` (``ga.GaOutput``): both grade sets are closed
under prefixes, so on a well-formed frontier each test below gives the
verdict the same test over every graded log would, and bounded divergence
fails any other frontier.  Graded consistency asks every receiver to grade
every receiver's ``grade1``; integrity asks each top to be a prefix of some
input; validity asks the inputs' common prefix to have grade 1; uniqueness
asks the ``grade1`` logs to form a chain (``core.is_chain``); and bounded
divergence asks each output to be a frontier of at most two branches: at
most two tops, conflicting, with its ``grade1`` under one of them.  The
tops are read as ``grade`` found them, never capped, so a broken ``grade``
still fails there.  Witnesses name a receiver's ``grade1`` or tops: the
first missing ``grade1`` for graded consistency, the first conflicting pair
of ``grade1`` logs in record order for uniqueness.  Safety is decided by
``is_chain`` too, but its witness is the first conflicting pair in scan
order, since the golden reports of the attacked scenarios contain it.

Receivers of one record that hold the same view object hold the same
evidence and output, so the agreement properties are decided once per such
group; in a synchronous ``World`` round every receiver shares one view, and
that one group is taken without a grouping dict.  Witnesses still name the
first receiver in record order.  A pass without detail, and each
not-applicable verdict with its fixed reason, is one shared frozen report;
a report is built only when it carries a witness or a clique count.

Clique validity searches a base log ``lam`` with ``_find_clique`` only if two
things hold for one group: some receiver of the group has an initial vote of
its own that extends ``lam``, and the group's initial votes extending ``lam``
exceed two thirds of the pool.  Skipping every other base is exact.  The
search's fixpoint only removes members, and when it ends each receiver left
in the clique covers every member, itself included, with an initial vote
extending ``lam``.  So a qualifying clique, which holds a receiver and more
than two thirds of the pool, holds a receiver whose group meets both
conditions (counting votes rather than senders can only keep more bases).
The bases kept are searched in the same order as all of them would be, so
the count of qualifying bases and the first failing one do not change.

The trace checks read each process's delivered log from
``Trace.decision_timeline``, built once per trace, so safety, liveness and
both halves of healing share it.  Every log safety compares is a decided log
or the empty log, and every log asynchrony resilience compares is a decided
log, so when the trace's decided logs form one chain
(``Trace.decisions_form_chain``, also built once) both pass at once: a subset
of a chain, with the empty log added, is a chain.  Only a trace whose
decisions conflict is scanned, process by process and round by round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, repeat
from operator import is_
from typing import Iterable, Mapping

from .core import (
    EMPTY_LOG,
    Log,
    ProcessId,
    VoteMsg,
    compatible,
    conflicts,
    is_chain,
    is_prefix,
    longest_common_prefix,
)
from .ga import GaOutput, GaRecord, ReceiverView
from .tob import view_of
from .world import DeliverEvent, SendEvent, Trace


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OracleReport:
    name: str
    verdict: Verdict
    detail: str = ""
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict.value, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# independent tally


def naive_merged_votes(
    initial_msgs: Iterable[VoteMsg], round_msgs: Iterable[VoteMsg]
) -> dict[ProcessId, Log]:
    """Brute-force merge: round votes beat initial votes, a sender with two
    differing round votes is thrown out wholesale."""
    logs_by_sender: dict[ProcessId, set[Log]] = {}
    for m in round_msgs:
        logs_by_sender.setdefault(m.sender, set()).add(m.log)
    votes: dict[ProcessId, Log] = {}
    for sender, logs in logs_by_sender.items():
        if len(logs) == 1:
            votes[sender] = next(iter(logs))
    for m in initial_msgs:
        if m.sender not in logs_by_sender:
            votes[m.sender] = m.log
    return votes


def naive_outputs(votes: Mapping[ProcessId, Log]) -> dict[Log, int]:
    """Grade a merged vote map by scanning every candidate prefix and
    comparing exact fractions against the 1/3 and 2/3 quorums."""
    m = len(votes)
    candidates: set[Log] = set()
    for log in votes.values():
        candidates.update(log.prefixes())
    out: dict[Log, int] = {}
    for cand in candidates:
        count = sum(1 for log in votes.values() if is_prefix(cand, log))
        if Fraction(count, 1) > Fraction(2 * m, 3):
            out[cand] = 1
        elif Fraction(count, 1) > Fraction(m, 3):
            out[cand] = 0
    return out


def naive_record_outputs(record: GaRecord, receiver: ProcessId) -> dict[Log, int]:
    view = record.receivers[receiver]
    votes = naive_merged_votes(view.initial.messages, view.received)
    return naive_outputs(votes)


# ---------------------------------------------------------------------------
# graded-agreement properties

# the properties asserted only under synchrony and the quorum assumption
_QUORUM_PROPERTIES = (
    "graded_consistency", "integrity", "validity", "uniqueness", "bounded_divergence",
)
# the reports every record and call shares: a pass without detail per
# property, and each not-applicable verdict with its fixed reason
_PASSED = {name: OracleReport(name, Verdict.PASS) for name in _QUORUM_PROPERTIES}
_NOT_SYNCHRONOUS, _NO_QUORUM = (
    {name: OracleReport(name, Verdict.NOT_APPLICABLE, detail=why) for name in _QUORUM_PROPERTIES}
    for why in ("round not synchronous", "quorum assumption absent")
)
_NO_INPUTS = OracleReport("validity", Verdict.NOT_APPLICABLE, detail="no well-behaved inputs")
_NO_CLIQUE = OracleReport("clique_validity", Verdict.NOT_APPLICABLE, detail="no qualifying clique")


def _by_view(record: GaRecord) -> list[tuple[ReceiverView, list[ProcessId]]]:
    """The record's receivers grouped by the view object they hold, groups
    in order of first appearance and members in record order.

    Receivers holding one object hold the same evidence and output, so each
    per-receiver test is decided once per group.  A scan of the receivers in
    record order stops at the first failing one, which is the first member
    of its group, so that member names the group in witnesses.  When every
    receiver holds the first one's very object (``is``, never ``==``), that
    is the one group.
    """
    receivers = record.receivers
    if receivers:
        first = next(iter(receivers.values()))
        if all(map(is_, receivers.values(), repeat(first))):
            return [(first, list(receivers))]
    groups: dict[int, tuple[ReceiverView, list[ProcessId]]] = {}
    for q, view in record.receivers.items():
        groups.setdefault(id(view), (view, []))[1].append(q)
    return list(groups.values())


def _find_clique(
    record: GaRecord, groups: list[tuple[ReceiverView, list[ProcessId]]], lam: Log
) -> frozenset[ProcessId]:
    """Largest natural mutually-informed set for ``lam``: senders whose
    input extends it plus receivers whose initial sets cover every member
    with a vote extending it (computed as a decreasing fixpoint).  The
    receivers of one group share their cover."""
    members = {p for p, log in record.inputs.items() if is_prefix(lam, log)}
    covers: list[tuple[set[ProcessId], list[ProcessId]]] = []
    for view, qs in groups:
        cover = {m.sender for m in view.initial.messages if is_prefix(lam, m.log)}
        covers.append((cover, qs))
        if cover:  # a receiver whose input extends lam is a member already
            members.update(q for q in qs if q not in record.inputs)
    while True:
        bad = [q for cover, qs in covers if not members <= cover for q in qs if q in members]
        if not bad:
            return frozenset(members)
        members.difference_update(bad)


def _divergence(out: GaOutput) -> list[Log]:
    """The logs that show ``out`` is no frontier of at most two branches:
    its first three tops when it has more than two, both when two are
    compatible, and its ``grade1`` with its tops when no top extends it;
    empty when it is one."""
    tops = out.tops
    if len(tops) > 2:
        return list(tops[:3])
    if len(tops) == 2 and compatible(*tops):
        return list(tops)
    if out.grade1 is not None and not any(is_prefix(out.grade1, top) for top in tops):
        return [out.grade1, *tops]
    return []


def check_ga_properties(record: GaRecord) -> dict[str, OracleReport]:
    """Evaluate the agreement properties on one record.

    Graded consistency, integrity, validity, uniqueness, and bounded
    divergence are asserted only for synchronous records whose awake honest
    senders exceed two thirds of every process that can influence a tally;
    clique validity is evaluated whenever its own hypotheses hold, in
    synchronous and asynchronous rounds alike.
    """
    groups = _by_view(record)
    # everyone who can influence a tally
    pool = set(record.inputs) | record.byzantine
    for view, _ in groups:
        pool.update(m.sender for m in view.initial.messages)
    applicable = record.synchronous and 3 * len(record.inputs) > 2 * len(pool)
    # each group's output, under its first receiver
    outputs = [(qs[0], view.output) for view, qs in groups]

    def judge(name: str, witness: dict | None) -> None:
        reports[name] = OracleReport(name, Verdict.FAIL, witness=witness) if witness else _PASSED[name]

    if not applicable:
        reports = dict(_NO_QUORUM if record.synchronous else _NOT_SYNCHRONOUS)
    else:
        reports = {}
        # each grade-1 frontier log with the first receiver holding it
        holder: dict[Log, ProcessId] = {}
        for q, out in outputs:
            if out.grade1 is not None:
                holder.setdefault(out.grade1, q)
        fail = next(
            ({"receiver": holder[lam], "log": repr(lam), "missing_at": q}
             for q, out in outputs for lam in holder if out.grade_of(lam) is None),
            None,
        )
        judge("graded_consistency", fail)

        inputs = set(record.inputs.values())
        fail = next(
            ({"receiver": i, "log": repr(lam)}
             for i, out_i in outputs for lam in out_i.tops
             if not any(is_prefix(lam, log) for log in inputs)),
            None,
        )
        judge("integrity", fail)

        if record.inputs:
            lcp = longest_common_prefix(inputs)
            fail = next(
                ({"receiver": i, "log": repr(lcp)}
                 for i, out_i in outputs if out_i.grade_of(lcp) != 1),
                None,
            )
            judge("validity", fail)
        else:
            reports["validity"] = _NO_INPUTS

        fail = None
        if not is_chain(holder):
            la, lb = next((a, b) for a, b in combinations(holder, 2) if conflicts(a, b))
            fail = {"receiver_a": holder[la], "log_a": repr(la),
                    "receiver_b": holder[lb], "log_b": repr(lb)}
        judge("uniqueness", fail)

        fail = next(
            ({"receiver": i, "logs": [repr(lam) for lam in logs]}
             for i, out_i in outputs if (logs := _divergence(out_i))),
            None,
        )
        judge("bounded_divergence", fail)

    # clique validity: only the bases the module docstring's rule keeps are
    # searched; a group's initial votes extending a log are its subtree weight,
    # from one walk per distinct initial log
    candidates: set[Log] = set()
    for view, qs in groups:
        msgs = view.initial.messages
        if 3 * len(msgs) <= 2 * len(pool):
            continue  # not even the empty log has enough votes extending it
        weight: Counter[Log] = Counter()
        for log, k in Counter(m.log for m in msgs).items():
            for lam in log.prefixes():
                weight[lam] += k
        in_group = set(qs)
        for log in {m.log for m in msgs if m.sender in in_group}:
            candidates.update(lam for lam in log.prefixes() if 3 * weight[lam] > 2 * len(pool))
    receivers = set(record.receivers)
    applicable_cliques = 0
    fail = None
    for lam in sorted(candidates, key=lambda l: (len(l), l)):
        clique = _find_clique(record, groups, lam)
        clique_receivers = clique & receivers
        if not clique_receivers or not 3 * len(clique) > 2 * len(pool):
            continue
        applicable_cliques += 1
        for q in sorted(clique_receivers):
            if record.receivers[q].output.grade_of(lam) != 1:
                fail = {"receiver": q, "log": repr(lam), "clique_size": len(clique)}
                break
        if fail:
            break
    if applicable_cliques == 0:
        reports["clique_validity"] = _NO_CLIQUE
    else:
        reports["clique_validity"] = OracleReport(
            "clique_validity", Verdict.FAIL if fail else Verdict.PASS,
            detail=f"{applicable_cliques} qualifying base logs", witness=fail,
        )
    return reports


def trace_ga_reports(trace: Trace) -> dict[int, dict[str, OracleReport]]:
    return {r: check_ga_properties(rec) for r, rec in sorted(trace.ga_records().items())}


# ---------------------------------------------------------------------------
# trace-level checks


def delivered_at(
    timeline: dict[ProcessId, list[tuple[int, Log]]], pid: ProcessId, r: int
) -> Log:
    """The log ``pid`` has delivered at the end of round ``r``, read from a
    ``Trace.decision_timeline``."""
    log = EMPTY_LOG
    for rd, val in timeline.get(pid, []):
        if rd <= r:
            log = val
        else:
            break
    return log


def check_safety_after(trace: Trace, r: int) -> OracleReport:
    """No two well-behaved awake processes hold incompatible delivered logs
    at any two rounds after ``r`` (the same process at two rounds counts).

    Every delivered log is a decided log or the empty log, so when the
    trace's decided logs form one chain the check passes without a scan.
    Otherwise each process's decision points are stepped through alongside
    the rounds, so its delivered log at every round costs one pass over its
    timeline."""
    if trace.decisions_form_chain:
        return OracleReport("safety_after", Verdict.PASS, detail=f"after round {r}")
    timeline = trace.decision_timeline
    sched = trace.schedule
    snapshots: list[tuple[ProcessId, int, Log]] = []
    for pid in sorted(timeline):
        points = timeline[pid]
        i, log, last = 0, EMPTY_LOG, None
        for r2 in range(r + 1, sched.horizon + 1):
            while i < len(points) and points[i][0] <= r2:
                log = points[i][1]
                i += 1
            if pid in sched.awake_honest[r2] and (last is None or log != last):
                snapshots.append((pid, r2, log))
                last = log
    if is_chain(log for _, _, log in snapshots):
        return OracleReport("safety_after", Verdict.PASS, detail=f"after round {r}")
    return OracleReport(
        "safety_after",
        Verdict.FAIL,
        detail=f"conflicting delivered logs after round {r}",
        witness=_safety_witness(snapshots),
    )


def _safety_witness(snapshots: list[tuple[ProcessId, int, Log]]) -> dict | None:
    """First conflicting pair of delivered-log snapshots in scan order."""
    for a in range(len(snapshots)):
        for b in range(a + 1, len(snapshots)):
            pi_, ri_, li_ = snapshots[a]
            pj_, rj_, lj_ = snapshots[b]
            if not compatible(li_, lj_):
                return {
                    "process_a": pi_,
                    "round_a": ri_,
                    "log_a": repr(li_),
                    "process_b": pj_,
                    "round_b": rj_,
                    "log_b": repr(lj_),
                }
    return None


def check_liveness_after(trace: Trace, r: int, window: int) -> OracleReport:
    """Every well-behaved process awake through [r, r+window] delivers, by
    round r+window, a log containing some value introduced at or after r.

    Values are introduced as the fresh tip of a well-behaved proposal, in
    the round ``Trace.first_input_round`` gives.
    """
    sched = trace.schedule
    if r + window > sched.horizon:
        return OracleReport(
            "liveness_after",
            Verdict.INCONCLUSIVE,
            detail=f"horizon {sched.horizon} shorter than round {r}+{window}",
        )
    steady = sorted(frozenset.intersection(*sched.awake_honest[r:r + window + 1]))
    if not steady:
        return OracleReport(
            "liveness_after", Verdict.INCONCLUSIVE, detail="no continuously awake process"
        )
    fresh = trace.inputs_since(r)
    if not fresh:
        return OracleReport(
            "liveness_after", Verdict.INCONCLUSIVE, detail="no value introduced after r"
        )
    for p in steady:
        log = delivered_at(trace.decision_timeline, p, r + window)
        if not any(v in fresh for v in log.values):
            return OracleReport(
                "liveness_after",
                Verdict.FAIL,
                detail=f"no post-round-{r} value delivered within {window} rounds",
                witness={"process": p, "delivered": repr(log)},
            )
    return OracleReport(
        "liveness_after", Verdict.PASS, detail=f"window [{r}, {r + window}]"
    )


def check_async_resilience(trace: Trace, r_a: int, pi: int) -> OracleReport:
    """No decision conflicting with the logs decided by round ``r_a``:
    during the window (and one round beyond) for processes awake at r_a,
    and afterwards for every well-behaved process.

    Both sides of every comparison are decided logs, so when the trace's
    decided logs form one chain no decision conflicts and the check passes
    without a scan."""
    if trace.decisions_form_chain:
        return OracleReport(
            "async_resilience", Verdict.PASS, detail=f"window [{r_a + 1}, {r_a + pi}]"
        )
    d_ra = trace.decided_up_to(r_a)
    h_ra = trace.schedule.awake_honest[r_a]
    for e in trace.decide_events():
        if e.round <= r_a:
            continue
        conflicting = [d for d in d_ra if conflicts(e.log, d)]
        if not conflicting:
            continue
        in_window = e.round <= r_a + pi + 1
        if (pid := next((p for p in e.pids if not in_window or p in h_ra), None)) is not None:
            return OracleReport(
                "async_resilience",
                Verdict.FAIL,
                detail="decision conflicts with a pre-window decision",
                witness={
                    "process": pid,
                    "round": e.round,
                    "log": repr(e.log),
                    "conflicts_with": repr(conflicting[0]),
                },
            )
    return OracleReport(
        "async_resilience", Verdict.PASS, detail=f"window [{r_a + 1}, {r_a + pi}]"
    )


def first_full_view_after(last_async_round: int) -> int:
    """First view both of whose rounds come after ``last_async_round``."""
    return view_of(last_async_round) + 1


def check_healing(
    trace: Trace, last_async_round: int, *, liveness_window: int
) -> OracleReport:
    """Safety and liveness both hold after the first view that is entirely
    past the window (recovery-after-asynchrony, one-view healing lag)."""
    v = first_full_view_after(last_async_round)
    r_heal = 2 * v
    if r_heal >= trace.horizon:
        return OracleReport(
            "healing", Verdict.INCONCLUSIVE, detail="trace ends inside or at the window"
        )
    safety = check_safety_after(trace, r_heal)
    liveness = check_liveness_after(trace, r_heal, liveness_window)
    if safety.verdict is Verdict.FAIL or liveness.verdict is Verdict.FAIL:
        bad = safety if safety.verdict is Verdict.FAIL else liveness
        return OracleReport(
            "healing",
            Verdict.FAIL,
            detail=f"{bad.name} failed after healing round {r_heal}",
            witness=bad.witness,
        )
    if liveness.verdict is Verdict.INCONCLUSIVE:
        return OracleReport("healing", Verdict.INCONCLUSIVE, detail=liveness.detail)
    return OracleReport("healing", Verdict.PASS, detail=f"healed from round {r_heal}")


def check_trace_wellformed(trace: Trace) -> OracleReport:
    """Every delivered message was sent earlier in the trace: each id a
    delivery names is the index of a send before it, and a send event
    counts one send per sender."""
    sends = 0
    for e in trace.events:
        if isinstance(e, SendEvent):
            sends += len(e.senders)
        elif isinstance(e, DeliverEvent):
            for i in e.ids:
                if not 0 <= i < sends:
                    return OracleReport(
                        "trace_wellformed",
                        Verdict.FAIL,
                        detail="delivered message was never sent",
                        witness={"round": e.round, "receiver": e.receivers[0], "send": i},
                    )
    return OracleReport("trace_wellformed", Verdict.PASS)
