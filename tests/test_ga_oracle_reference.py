"""The graded-agreement oracle against the code it replaced.

``check_ga_properties``, ``_quorum_holds`` and ``_find_clique`` below are
kept verbatim as they were when the oracle built the tally pool twice,
expanded clique candidates from every receiver's every initial vote,
scanned every input for each output log and decided the agreement
properties on every graded log; ``maximal`` is kept verbatim as ``core``
had it.  Two edits: initial senders are
read from ``view.initial.messages`` (``_initial_senders``), since
``GaRecord`` no longer carries them; and prefixes and the longest common
prefix are computed from slices of value tuples (``sliced_prefixes``,
``sliced_common_prefix``), so the reference shares no log-tree walk with the
oracle.  The reference reads each output as the graded output it replaced,
``helpers.ReferenceGaOutput`` over the frontier's expansion.

On every record both oracles must give the same reports, verdicts and
details alike.  Witnesses must agree on validity and clique validity; on
graded consistency, integrity and bounded divergence they must name the
same receivers, while the oracle names a frontier's logs (a ``grade1`` or
tops) where the reference named the first graded log its scan met; on
uniqueness only the verdict is compared, since the oracle names the first
conflicting pair in record order and the reference the two longest.  The
records come
from ``helpers.run_instance`` (synchronous and filtered delivery, initial sets
holding round-``r`` voters, Byzantine equivocation, empty inputs, receivers
that sent nothing, and frontiers edited into failing ones), from those records with receivers made to share view
objects or to hold equal copies, which the oracle judges once per shared
object, and from ``World`` runs of both window attacks, whose synchronous
rounds give every receiver one view.  On every record the oracle must also
hand its clique search every base the reference counts as qualifying, up to
the first failing one, since it skips the bases its prune rules out.
"""

import random
from dataclasses import replace
from fractions import Fraction
from typing import Iterable

from hypothesis import find, given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceGaOutput,
    expand,
    fields_key,
    frontier,
    run_instance,
    sliced_common_prefix,
    sliced_prefixes,
)
from sleepy_tob import oracle
from sleepy_tob.core import (
    Log,
    ProcessId,
    Value,
    VoteMsg,
    conflicts,
    is_prefix,
)
from sleepy_tob.ga import GaRecord, InitialVoteSet
from sleepy_tob.model_checks import ModelParams
from sleepy_tob.oracle import OracleReport, Verdict
from sleepy_tob.world import (
    STRATEGIES,
    InfeasibleScheduleError,
    constant_schedule,
    generate_schedule,
    run,
)

# ---------------------------------------------------------------------------
# reference: the oracle as it was


def maximal(logs: Iterable[Log]) -> list[Log]:
    """The distinct logs that are not a proper prefix of another input log,
    longest first.

    Maximal logs are pairwise conflicting, and any conflicting logs have
    distinct maximal extensions, so the inputs hold three pairwise
    conflicting logs iff there are at least three maximal ones.
    """
    tops: list[Log] = []
    for log in sorted(dict.fromkeys(logs), key=len, reverse=True):
        if not any(is_prefix(log, top) for top in tops):
            tops.append(log)
    return tops


def _initial_senders(record: GaRecord) -> frozenset[ProcessId]:
    out: set[ProcessId] = set()
    for view in record.receivers.values():
        out |= {m.sender for m in view.initial.messages}
    return frozenset(out)


def _quorum_holds(record: GaRecord) -> bool:
    h_r = set(record.inputs)
    s_r = h_r | set(record.byzantine)
    pool = s_r | set(_initial_senders(record))
    return 3 * len(h_r) > 2 * len(pool)


def _find_clique(record: GaRecord, lam: Log) -> frozenset[ProcessId]:
    """Largest natural mutually-informed set for ``lam``: senders whose
    input extends it plus receivers whose initial sets cover every member
    with a vote extending it (computed as a decreasing fixpoint)."""
    receivers = set(record.receivers)
    cover = {
        q: {m.sender for m in record.receivers[q].initial.messages if is_prefix(lam, m.log)}
        for q in receivers
    }
    members: set[ProcessId] = set()
    for p, log in record.inputs.items():
        if is_prefix(lam, log):
            members.add(p)
    for q in receivers:
        if q in record.inputs and not is_prefix(lam, record.inputs[q]):
            continue
        if cover[q]:
            members.add(q)
    while True:
        bad = [q for q in members if q in receivers and not members <= cover[q]]
        if not bad:
            return frozenset(members)
        members -= set(bad)


def check_ga_properties(record: GaRecord) -> dict[str, OracleReport]:
    """Evaluate the agreement properties on one record.

    Graded consistency, integrity, validity, uniqueness, and bounded
    divergence are asserted only for synchronous records whose awake honest
    senders exceed two thirds of every process that can influence a tally;
    clique validity is evaluated whenever its own hypotheses hold, in
    synchronous and asynchronous rounds alike.
    """
    reports: dict[str, OracleReport] = {}
    applicable = record.synchronous and _quorum_holds(record)
    outputs = {q: view.output for q, view in record.receivers.items()}

    def judge(name: str, witness: dict | None, detail: str = "") -> None:
        verdict = Verdict.FAIL if witness else Verdict.PASS
        reports[name] = OracleReport(name, verdict, detail=detail, witness=witness)

    def na(name: str, why: str) -> None:
        reports[name] = OracleReport(name, Verdict.NOT_APPLICABLE, detail=why)

    if not applicable:
        why = "round not synchronous" if not record.synchronous else "quorum assumption absent"
        for name in (
            "graded_consistency",
            "integrity",
            "validity",
            "uniqueness",
            "bounded_divergence",
        ):
            na(name, why)
    else:
        # each grade-1 log with the first receiver grading it 1
        holder: dict[Log, ProcessId] = {}
        for q, out in outputs.items():
            for lam in out.grade1_logs():
                holder.setdefault(lam, q)
        fail = None
        for q, out in outputs.items():
            if not out.grades.keys() >= holder.keys():
                lam = next(lam for lam in holder if lam not in out.grades)
                fail = {"receiver": holder[lam], "log": repr(lam), "missing_at": q}
                break
        judge("graded_consistency", fail)

        fail = next(
            ({"receiver": i, "log": repr(lam)}
             for i, out_i in outputs.items() for lam in out_i.grades
             if not any(is_prefix(lam, inp) for inp in record.inputs.values())),
            None,
        )
        judge("integrity", fail)

        if record.inputs:
            lcp = sliced_common_prefix(record.inputs.values())
            fail = next(
                ({"receiver": i, "log": repr(lcp)}
                 for i, out_i in outputs.items() if out_i.grade_of(lcp) != 1),
                None,
            )
            judge("validity", fail)
        else:
            na("validity", "no well-behaved inputs")

        # maximal logs conflict pairwise, so two of them violate uniqueness
        tops = maximal(holder)
        fail = None
        if len(tops) >= 2:
            la, lb = tops[:2]
            fail = {"receiver_a": holder[la], "log_a": repr(la),
                    "receiver_b": holder[lb], "log_b": repr(lb)}
        judge("uniqueness", fail)

        fail = None
        for i, out_i in outputs.items():
            tops = maximal(out_i.grades)
            if len(tops) >= 3:
                fail = {"receiver": i, "logs": [repr(lam) for lam in tops[:3]]}
                break
        judge("bounded_divergence", fail)

    # clique validity: try every observed log (and prefix) as the common base
    candidates: set[Log] = set()
    for log in record.inputs.values():
        candidates.update(sliced_prefixes(log))
    for view in record.receivers.values():
        for m in view.initial.messages:
            candidates.update(sliced_prefixes(m.log))
    pool_size = len(set(record.inputs) | set(record.byzantine) | set(_initial_senders(record)))
    applicable_cliques = 0
    fail = None
    for lam in sorted(candidates, key=lambda l: (len(l), fields_key(l))):
        clique = _find_clique(record, lam)
        clique_receivers = clique & set(record.receivers)
        if not clique_receivers or not 3 * len(clique) > 2 * pool_size:
            continue
        applicable_cliques += 1
        for q in sorted(clique_receivers):
            if outputs[q].grade_of(lam) != 1:
                fail = {"receiver": q, "log": repr(lam), "clique_size": len(clique)}
                break
        if fail:
            break
    if applicable_cliques == 0:
        na("clique_validity", "no qualifying clique")
    else:
        judge("clique_validity", fail, detail=f"{applicable_cliques} qualifying base logs")
    return reports


# ---------------------------------------------------------------------------
# the clique bases each oracle tries


def reference_candidates(record: GaRecord) -> set[Log]:
    """The base logs the reference tries: every prefix of every input and
    initial log."""
    candidates: set[Log] = set()
    for log in record.inputs.values():
        candidates.update(sliced_prefixes(log))
    for view in record.receivers.values():
        for m in view.initial.messages:
            candidates.update(sliced_prefixes(m.log))
    return candidates


def reference_qualifying(record: GaRecord) -> dict[Log, frozenset[ProcessId]]:
    """The base logs the reference counts as qualifying, with their cliques."""
    pool_size = len(set(record.inputs) | set(record.byzantine) | set(_initial_senders(record)))
    out = {}
    for lam in reference_candidates(record):
        clique = _find_clique(record, lam)
        if clique & set(record.receivers) and 3 * len(clique) > 2 * pool_size:
            out[lam] = clique
    return out


def searched_bases(record: GaRecord) -> list[Log]:
    """The base logs the oracle hands to its clique search, in order."""
    searched = []
    find_clique = oracle._find_clique

    def recording(record, groups, lam):
        searched.append(lam)
        return find_clique(record, groups, lam)

    oracle._find_clique = recording
    try:
        oracle.check_ga_properties(record)
    finally:
        oracle._find_clique = find_clique
    return searched


def check_clique_prune(record: GaRecord) -> None:
    """The invariant the oracle's prune rests on: each receiver in a
    qualifying clique has an initial vote of its own extending the base, and
    its initial votes extending the base exceed two thirds of the pool.  So
    the oracle searches every qualifying base, in order, up to the first
    failing one, where it stops."""
    pool_size = len(set(record.inputs) | set(record.byzantine) | set(_initial_senders(record)))
    qualifying = reference_qualifying(record)
    for lam, clique in qualifying.items():
        for q in clique & set(record.receivers):
            extending = [m for m in record.receivers[q].initial.messages if is_prefix(lam, m.log)]
            assert any(m.sender == q for m in extending)
            assert 3 * len(extending) > 2 * pool_size
    order = sorted(qualifying, key=lambda l: (len(l), fields_key(l)))
    tried = [lam for lam in searched_bases(record) if lam in qualifying]
    assert tried == order[: len(tried)]
    if tried != order:
        report = oracle.check_ga_properties(record)["clique_validity"]
        assert report.verdict is Verdict.FAIL and report.witness["log"] == repr(tried[-1])


# ---------------------------------------------------------------------------
# the two oracles on the same records


#: the witness keys compared only through the verdict: the logs the oracle
#: reads from frontiers, and on uniqueness a pair in another order
UNCOMPARED = {"graded_consistency": {"log"}, "integrity": {"log"},
              "bounded_divergence": {"logs"},
              "uniqueness": {"receiver_a", "log_a", "receiver_b", "log_b"}}


def reference_record(record: GaRecord) -> GaRecord:
    """``record`` with each output replaced by the graded output it stands
    for, as the reference reads it."""
    views = {q: replace(view, output=ReferenceGaOutput(expand(view.output)))
             for q, view in record.receivers.items()}
    return replace(record, receivers=views)


def comparable(reports: dict[str, OracleReport]) -> dict[str, dict]:
    out = {}
    for name, report in reports.items():
        out[name] = report.to_dict()
        if report.witness is not None:
            skip = UNCOMPARED.get(name, set())
            out[name]["witness"] = {k: v for k, v in report.witness.items() if k not in skip}
    return out


def same_reports(record: GaRecord) -> None:
    ours = comparable(oracle.check_ga_properties(record))
    assert ours == comparable(check_ga_properties(reference_record(record)))
    check_clique_prune(record)


VALUES = [Value(id=i, proposer=99, view=0) for i in range(3)]
logs = st.lists(st.integers(0, 2), max_size=3).map(lambda ids: Log(tuple(VALUES[i] for i in ids)))
tips = st.sampled_from([Log((v,)) for v in VALUES])  # pairwise conflicting
ROUND = 4


@st.composite
def instances(draw) -> GaRecord:
    """One ``run_instance`` record.  Senders 0-7 are well-behaved, 10-11
    Byzantine (one or two logs each, so some equivocate), 20-21 receivers
    that sent nothing and 30-31 sleepers that only appear in initial sets.
    Older votes come from a drawn subset of them, round-``ROUND`` voters
    included, and each receiver holds a drawn subset of those.  A planted
    record instead gives every sender an older vote, gives every receiver
    all of them and has every well-behaved log extend one base, so that
    clique validity applies.  Up to four edits then change receivers'
    outputs, so that every property also fails and its witness is compared:
    each gives up to three logs one grade, or ungrades them, in the output's
    expansion (``edit``), and the frontier of the result replaces the output.
    """
    plant = draw(st.booleans())
    base = draw(logs).values if plant else ()
    based = logs.map(lambda log: Log(base + log.values))
    inputs = draw(st.dictionaries(st.integers(0, 7), based, max_size=8))
    byz_ids = list(range(10, 10 + draw(st.integers(0, 2))))
    byz_msgs = [
        VoteMsg(b, ROUND, log)
        for b in byz_ids
        for log in draw(st.lists(logs, min_size=1, max_size=2, unique=True))
    ]
    idle = draw(st.lists(st.sampled_from([20, 21]), unique=True))
    receivers = sorted(set(inputs) | set(idle))
    sleepers = draw(st.lists(st.sampled_from([30, 31]), unique=True))
    senders = sorted(inputs) + byz_ids + idle + sleepers
    if not plant:
        senders = draw(st.lists(st.sampled_from(senders), unique=True)) if senders else []
    older = [VoteMsg(s, draw(st.integers(1, ROUND - 1)), draw(based)) for s in senders]
    initial_sets = {
        q: InitialVoteSet(frozenset(m for m in older if plant or draw(st.booleans())))
        for q in receivers
    }
    delivery = None
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**16)))
        delivery = lambda q, msgs: [m for m in msgs if rng.random() < 0.5]  # noqa: E731
    record = run_instance(
        ROUND,
        inputs,
        byz_msgs,
        initial_sets,
        receivers=receivers,
        byzantine=byz_ids,
        delivery=delivery,
    )
    views = dict(record.receivers)
    lams = st.lists(logs | tips, min_size=1, max_size=3)
    edits = st.tuples(st.sampled_from(receivers), lams, st.sampled_from([None, 0, 1]))
    for q, lams, g in draw(st.lists(edits, max_size=4)) if receivers else ():
        grades = expand(views[q].output)
        for lam in lams:
            grades = edit(grades, lam, g)
        views[q] = replace(views[q], output=frontier(grades))
    return replace(record, receivers=views)


def edit(grades: dict[Log, int], lam: Log, g: int | None) -> dict[Log, int]:
    """The prefix-closed grades ``grades`` with ``lam`` given grade ``g``,
    or ungraded for ``None``, changing as few other logs as keeps both grade
    sets prefix-closed and the grade-1 logs a chain: ungrading ``lam``
    ungrades its extensions, grade 0 demotes them to 0, and grade 1 demotes
    the grade-1 logs that conflict with ``lam``."""
    if g is None:
        return {log: v for log, v in grades.items() if not is_prefix(lam, log)}
    if g == 0:
        return {**{log: 0 if is_prefix(lam, log) else v for log, v in grades.items()}, lam: 0}
    return {**{log: 0 if v == 1 and conflicts(lam, log) else v
               for log, v in grades.items()}, lam: 1}


@settings(max_examples=600, deadline=None)
@given(instances())
def test_run_instance_records_match_reference(record):
    same_reports(record)


def test_clique_prune_keeps_qualifying_bases_and_skips_others():
    """The records include ones in which clique validity applies, so the
    prune keeps a base, while it skips a base the reference tries.  In a
    window attack's ``World`` run, where clique validity does not apply,
    every base is skipped."""
    record = find(
        instances(),
        lambda rec: bool(reference_qualifying(rec))
        and len(searched_bases(rec)) < len(reference_candidates(rec)),
        settings=settings(database=None, max_examples=2000),
    )
    assert oracle.check_ga_properties(record)["clique_validity"].verdict is not Verdict.NOT_APPLICABLE
    assert set(searched_bases(record)) < reference_candidates(record)

    params = ModelParams(tau=4, eta=4, pi=2, gamma=Fraction(1, 10), beta=Fraction(1, 3))
    schedule = generate_schedule(20, 20, params, 6, 0, n_byz=4)
    records = run(schedule, STRATEGIES["prop1"](), 0).ga_records().values()
    assert sum(len(reference_candidates(rec)) for rec in records) > 0
    for rec in records:
        assert searched_bases(rec) == []
        assert oracle.check_ga_properties(rec)["clique_validity"].verdict is Verdict.NOT_APPLICABLE


@st.composite
def shared_view_records(draw) -> GaRecord:
    """An ``instances`` record in which each receiver keeps its own view,
    takes the very view object of one of the first two receivers, or takes
    an equal but distinct copy of it.  Those two views may first lose one
    sender's initial vote, so that a shared cover can miss a clique member;
    edited (failing) views are shared like any other.  Two shapes are also
    drawn: every receiver holds the first receiver's very view object (the
    oracle's one-view path), or all do but the last, which holds an equal
    but distinct copy (so the one-view path must decline)."""
    record = draw(instances())
    own = dict(record.receivers)
    for q in list(own)[:2]:
        drop = draw(st.sampled_from([None, *sorted({m.sender for m in own[q].initial.messages})]))
        kept = frozenset(m for m in own[q].initial.messages if m.sender != drop)
        own[q] = replace(own[q], initial=InitialVoteSet(kept))
    views = {}
    for q in own:
        other = own[draw(st.sampled_from(list(own)[:2]))]
        how = draw(st.sampled_from(["own", "share", "share", "copy"]))
        views[q] = own[q] if how == "own" else other if how == "share" else replace(other)
    shape = draw(st.sampled_from(["mixed", "mixed", "one_view", "last_copy"]))
    if shape != "mixed" and views:
        first = next(iter(views.values()))
        views = dict.fromkeys(views, first)
        if shape == "last_copy":
            views[list(views)[-1]] = replace(first)
    return replace(record, receivers=views)


def one_view(record: GaRecord) -> bool:
    """Every receiver, and more than one, holds the first one's view object."""
    views = list(record.receivers.values())
    return len(views) > 1 and all(view is views[0] for view in views)


def last_copy(record: GaRecord) -> bool:
    """Every receiver but the last, and more than one, holds the first
    one's view object; the last holds an equal but distinct copy."""
    views = list(record.receivers.values())
    return (len(views) > 1 and all(view is views[0] for view in views[:-1])
            and views[-1] is not views[0] and views[-1] == views[0])


@settings(max_examples=600, deadline=None)
@given(shared_view_records())
def test_shared_view_records_match_reference(record):
    same_reports(record)
    # one group per distinct view object, never per equal value
    assert len(oracle._by_view(record)) == len({id(v) for v in record.receivers.values()})


def test_shared_view_records_draw_the_one_view_shapes():
    for shape in (one_view, last_copy):
        find(shared_view_records(), shape, settings=settings(database=None, max_examples=500))


def test_shared_failing_views_match_reference_and_name_the_first_receiver():
    """Receivers 0-3 share one view that grades only three conflicting logs
    off the input's branch, 4-7 hold an equal copy of it, and 8-9 the view
    ``run_instance`` gave.  Four properties fail, and each witness names the
    first failing receiver in record order."""
    inputs = {p: Log((VALUES[0],)) for p in range(8)}
    record = run_instance(ROUND, inputs, receivers=range(10))
    good = record.receivers[8]
    off = [Log((VALUES[1], VALUES[0])), Log((VALUES[1], VALUES[2])), Log((VALUES[2],))]
    bad = replace(good, output=frontier({log: 0 for log in off}))
    copy = replace(bad)
    views = {q: bad if q < 4 else copy if q < 8 else good for q in range(10)}
    record = replace(record, receivers={q: views[q] for q in (8, 2, 0, 5, 1, 3, 4, 6, 7, 9)})
    same_reports(record)
    reports = oracle.check_ga_properties(record)
    failed = {name for name, rep in reports.items() if rep.verdict is Verdict.FAIL}
    assert failed == {"graded_consistency", "integrity", "validity", "bounded_divergence"}
    assert reports["graded_consistency"].witness["missing_at"] == 2
    assert reports["integrity"].witness["receiver"] == 2
    assert reports["validity"].witness["receiver"] == 2
    assert reports["bounded_divergence"].witness["receiver"] == 2


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(["prop1", "split_decision"]),
    n=st.integers(8, 12),
    n_byz=st.integers(2, 3),
    tau=st.integers(2, 4),
    eta=st.sampled_from([0, 2, 4, None]),
    window=st.tuples(st.integers(1, 3), st.integers(1, 5)),
    seed=st.integers(0, 2**16),
)
def test_world_records_match_reference(preset, n, n_byz, tau, eta, window, seed):
    """Windows of generated schedules, inside and outside the model; a
    constant schedule stands in when no generated one fits."""
    pi, r_a = min(window[0], tau - 1), window[1]
    horizon = r_a + pi + 6
    params = ModelParams(tau=tau, eta=eta, pi=pi, gamma=Fraction(1, 10), beta=Fraction(1, 3))
    try:
        schedule = generate_schedule(n, horizon, params, r_a, seed, n_byz=n_byz, max_attempts=3)
    except InfeasibleScheduleError:
        schedule = constant_schedule(n, horizon, n_byz, params, r_a=r_a)
    records = run(schedule, STRATEGIES[preset](), seed).ga_records()
    assert records
    for record in records.values():
        if record.synchronous:
            # the oracle's shared-view path: one view object for every receiver
            assert len({id(view) for view in record.receivers.values()}) <= 1
        same_reports(record)
    assert any(r.synchronous and len(r.receivers) > 1 for r in records.values())
