"""The model bounds against the code they replaced.

The churn bound, the failure ratio and the trailing-window union each have
one implementation in ``model_checks``, shared by the four validators and
by ``world.generate_schedule``.  Below, the validators, ``check_all`` and
``generate_schedule`` are kept verbatim as they were when each wrote its
own copy of those rules; the one edit is that the reference generator calls
the reference ``check_all``.  On random parameters both generators must
return the same schedule or raise the same exception type, and both
``check_all``s must give the same report, on generated schedules and on
arbitrary ones that break the bounds.  ``model_checks._union``, one set
operation over a slice, must equal the reference loop on bounds before the
first round, past the last, crossed, and below -1.
"""

import random
from fractions import Fraction
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from sleepy_tob import model_checks
from sleepy_tob.core import ProcessId
from sleepy_tob.model_checks import CheckResult, ModelParams, ModelReport, RoundVerdict
from sleepy_tob.world import InfeasibleScheduleError, Schedule, generate_schedule

# ---------------------------------------------------------------------------
# reference: the validators and the generator as they were


def _union(sets: Sequence[frozenset[int]], lo: int, hi: int) -> frozenset[int]:
    """Union of per-round sets over rounds [max(lo, 0), hi]; empty when the
    range is empty."""
    out: set[int] = set()
    for r in range(max(lo, 0), hi + 1):
        if 0 <= r < len(sets):
            out |= sets[r]
    return frozenset(out)


def check_churn(schedule: "Schedule", tau: int, gamma: Fraction) -> CheckResult:
    """Per round r: |H_[r-tau, r-1] \\ H_r| <= gamma * |H_[r-tau, r-1]|."""
    gamma = Fraction(gamma)
    verdicts = []
    for r in range(schedule.horizon):
        window = _union(schedule.awake_honest, r - tau, r - 1)
        if not window:
            verdicts.append(RoundVerdict(r, True, vacuous=True))
            continue
        absent = len(window - schedule.awake_honest[r])
        ok = absent <= gamma * len(window)
        verdicts.append(
            RoundVerdict(r, ok, detail="" if ok else f"{absent}/{len(window)} dropped off")
        )
    return CheckResult(
        name="churn_bound",
        rounds=tuple(verdicts),
        passed=all(v.passed for v in verdicts),
    )


def check_failure_ratio(schedule: "Schedule", beta_tilde: Fraction) -> CheckResult:
    """Per round r: |B_r| < beta_tilde * |S_r| (strict)."""
    beta_tilde = Fraction(beta_tilde)
    verdicts = []
    for r in range(schedule.horizon):
        nb, ns = len(schedule.byzantine[r]), len(schedule.awake(r))
        ok = nb < beta_tilde * ns
        verdicts.append(
            RoundVerdict(r, ok, detail="" if ok else f"{nb} Byzantine of {ns} awake")
        )
    return CheckResult(
        name="failure_ratio",
        rounds=tuple(verdicts),
        passed=all(v.passed for v in verdicts),
    )


def check_async_conditions(
    schedule: "Schedule", r_a: int, pi: int, tau: int, beta: Fraction
) -> CheckResult:
    """Support for an asynchronous window [r_a+1, r_a+pi].

    For every round of the window and the first synchronous round after it,
    the survivors of the last-synchronous-round awake set must exceed a
    (1 - beta) fraction of everyone awake over the trailing tau rounds; and
    that awake set must still be intact at the end of round r_a.
    """
    beta = Fraction(beta)
    h_ra = schedule.awake_honest[r_a]
    awake = [schedule.awake(r) for r in range(len(schedule.awake_honest))]
    verdicts = []
    for r in range(r_a + 1, r_a + pi + 2):
        if r >= len(schedule.awake_honest):
            verdicts.append(RoundVerdict(r, False, detail="round beyond schedule"))
            continue
        survivors = len(h_ra - schedule.byzantine[r])
        pool = len(_union(awake, r - tau, r))
        ok = survivors > (1 - beta) * pool
        verdicts.append(
            RoundVerdict(r, ok, detail="" if ok else f"{survivors} survivors vs pool {pool}")
        )
    containment = r_a + 1 < len(schedule.awake_honest) and h_ra <= schedule.awake_honest[r_a + 1]
    passed = all(v.passed for v in verdicts) and containment
    return CheckResult(
        name="async_support",
        rounds=tuple(verdicts),
        passed=passed,
        detail="" if containment else "awake set not contained in the next round",
    )


def check_tau_sleepiness(schedule: "Schedule", tau: int, beta: Fraction) -> CheckResult:
    """Per round r: |H_r| > (1 - beta) * |S_[r-tau, r]| (strict)."""
    beta = Fraction(beta)
    awake = [schedule.awake(r) for r in range(len(schedule.awake_honest))]
    verdicts = []
    for r in range(schedule.horizon):
        nh = len(schedule.awake_honest[r])
        pool = len(_union(awake, r - tau, r))
        ok = nh > (1 - beta) * pool
        verdicts.append(
            RoundVerdict(r, ok, detail="" if ok else f"{nh} awake honest vs pool {pool}")
        )
    return CheckResult(
        name="tau_sleepiness",
        rounds=tuple(verdicts),
        passed=all(v.passed for v in verdicts),
    )


def check_all(schedule: "Schedule") -> ModelReport:
    """Run every validator with the schedule's own parameters."""
    p = schedule.params
    async_result = None
    if schedule.r_a is not None and schedule.pi > 0:
        async_result = check_async_conditions(
            schedule, schedule.r_a, schedule.pi, p.tau, p.beta
        )
    return ModelReport(
        churn=check_churn(schedule, p.tau, p.gamma),
        failure_ratio=check_failure_ratio(schedule, p.beta_tilde),
        async_support=async_result,
        tau_sleepiness=check_tau_sleepiness(schedule, p.tau, p.beta),
        params=p,
    )


def reference_generate_schedule(
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
    through the full validator before being returned.  A window that the
    schedule's structure cannot hold raises ``ScheduleError`` at once.
    """
    tau, pi, gamma, bt = params.tau, params.pi, params.gamma, params.beta_tilde
    if pi >= 1 and tau <= pi:
        raise ValueError(f"window must be shorter than the churn window (pi={pi}, tau={tau})")

    rng = random.Random(seed)
    if r_a is not None:
        freeze_lo, freeze_hi = max(0, r_a - tau), r_a + pi + 1
    else:
        freeze_lo, freeze_hi = horizon + 2, horizon + 2  # never

    for _ in range(max_attempts):
        if n_byz is not None:
            k = n_byz
        else:
            # largest Byzantine set the failure ratio tolerates at 3/4 turnout
            k = 0
            while bt < 1 and (k + 1) * (1 - bt) < bt * (((n - k - 1) * 3) // 4):
                k += 1
        pool = list(range(n - k))
        if not pool:
            raise InfeasibleScheduleError("no honest processes left after corruption")
        byz = frozenset(range(n - k, n))

        start = max(1, (len(pool) * 3) // 4)
        awake: list[frozenset[ProcessId]] = [frozenset(rng.sample(pool, start))]
        for r in range(1, horizon + 1):
            prev = set(awake[r - 1])
            if freeze_lo <= r <= freeze_hi:
                awake.append(frozenset(prev))
                continue
            cur = set(prev)
            for p in pool:
                if p not in cur and rng.random() < 0.25:
                    cur.add(p)
            if gamma > 0:
                droppable = sorted(cur)
                rng.shuffle(droppable)
                recent: set[ProcessId] = set()
                if tau > 0:
                    recent = set().union(*awake[max(0, r - tau) : r])
                for p in droppable[: rng.randint(0, 2)]:
                    trial = cur - {p}
                    churn_ok = not recent or len(recent - trial) <= gamma * len(recent)
                    ratio_ok = k < bt * (len(trial) + k)
                    if churn_ok and ratio_ok and trial:
                        cur = trial
            if not (k < bt * (len(cur) + k)):
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
        if check_all(schedule).all_pass:
            return schedule

    raise InfeasibleScheduleError(
        f"no schedule satisfying the model constraints after {max_attempts} attempts"
    )


# ---------------------------------------------------------------------------
# the differential tests

BETAS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


@st.composite
def model_params(draw) -> ModelParams:
    beta = draw(st.sampled_from(BETAS))
    gamma = beta * draw(st.sampled_from([0, 0, 1, 5, 10, 20, 30, 50, 90])) / 100
    pi = draw(st.integers(0, 3))
    return ModelParams(
        tau=pi + draw(st.integers(0, 4)),
        eta=draw(st.none() | st.integers(0, 6)),
        pi=pi,
        gamma=gamma,
        beta=beta,
    )


@st.composite
def params_and_window(draw) -> tuple[ModelParams, int | None]:
    """Parameters and an ``r_a`` that mostly agrees with ``pi``; now and
    then a window without ``r_a``, or the other way round."""
    params = draw(model_params())
    windowed = (params.pi > 0) != (draw(st.integers(0, 9)) == 0)
    return params, draw(st.integers(0, 12)) if windowed else None


def outcome(build):
    """What a schedule builder returns, or the type of what it raises."""
    try:
        return build()
    except Exception as exc:  # both sides must raise alike
        return type(exc)


def same_reports(schedule: Schedule) -> None:
    ours, reference = model_checks.check_all(schedule), check_all(schedule)
    assert ours.to_dict() == reference.to_dict()
    assert ours == reference  # every round's verdict and detail too


@settings(max_examples=500, deadline=None)
@given(
    window=params_and_window(),
    n=st.integers(1, 24),
    horizon=st.integers(1, 20),
    n_byz=st.none() | st.integers(0, 24),
    seed=st.integers(0, 2**32),
)
def test_generator_matches_reference(window, n, horizon, n_byz, seed):
    params, r_a = window
    args = (n, horizon, params, r_a, seed)
    ours = outcome(lambda: generate_schedule(*args, n_byz=n_byz))
    reference = outcome(lambda: reference_generate_schedule(*args, n_byz=n_byz))
    assert ours == reference
    if isinstance(ours, Schedule):
        same_reports(ours)


@settings(max_examples=300, deadline=None)
@given(
    params=model_params(),
    n=st.integers(1, 12),
    horizon=st.integers(1, 10),
    r_a=st.none() | st.integers(0, 10),
    seed=st.integers(0, 2**32),
)
def test_validators_match_reference(params, n, horizon, r_a, seed):
    """Arbitrary awake and growing Byzantine sets, and windows that may
    run past the horizon, so that each bound both passes and fails."""
    rng = random.Random(seed)
    ids = list(range(n))
    byz: list[frozenset[int]] = []
    for _ in range(horizon + 1):
        grown = set(byz[-1]) if byz else set()
        grown |= {p for p in ids if rng.random() < 0.1}
        byz.append(frozenset(grown))
    honest = tuple(
        frozenset(p for p in ids if p not in b and rng.random() < 0.7) for b in byz
    )
    r_a = None if r_a is None else min(r_a, horizon)
    schedule = Schedule(n, horizon, honest, tuple(byz), r_a, params)
    same_reports(schedule)


@settings(max_examples=500, deadline=None)
@given(
    sets=st.lists(st.frozensets(st.integers(0, 5), max_size=3), max_size=6),
    # bounds below the first round, past the last, crossed (lo > hi) and
    # with hi <= -2, where a plain slice would wrap from the end
    lo=st.integers(-4, 8),
    hi=st.integers(-4, 8),
)
def test_union_matches_reference(sets, lo, hi):
    assert model_checks._union(sets, lo, hi) == _union(sets, lo, hi)
