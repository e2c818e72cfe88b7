"""Validators for the participation model a schedule must satisfy.

The model bounds four things, all with exact rational arithmetic:

* churn: out of the well-behaved processes awake at some point during the
  last ``tau`` rounds, at most a fraction ``gamma`` may be absent from the
  current round;
* failure ratio: the Byzantine share of each round's awake set stays below
  a reduced bound ``beta_tilde = (beta - gamma) / (gamma * (beta - 2) + 1)``,
  which compensates for the unexpired votes of recently-offline processes;
* asynchrony support: the well-behaved processes awake in the last
  synchronous round before a window, minus any later corruptions, must
  outnumber (by the usual ratio) everyone whose votes may still count
  during the window and the first synchronous round after it, and they
  must all still be awake at the end of that round;
* sleepiness: each round's awake well-behaved processes exceed the usual
  quorum fraction of everyone awake during the trailing window.

A schedule is read as its per-round sets, ``awake_honest[r]`` and
``byzantine[r]``.  The churn and failure-ratio bounds are written once, as
the per-round predicates ``churn_ok`` and ``ratio_ok`` over the
trailing-window union ``_union``, one set union over a slice of rounds;
``world.generate_schedule`` rejects its churn moves with the same three.
The quorum rule of asynchrony support and sleepiness is written once, as
``_quorum``.  No verdict depends on floating point: each of the three
thresholds compares integers, a count times a ratio's denominator against
its numerator times a set size (``count > (1 - beta) * pool`` as
``count * d > (d - n) * pool`` for ``beta = n / d``), as ``ga.grade``
compares ``3 * count`` with ``2 * m``.  ``check_all`` runs the
validators once per schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:  # only for annotations; schedules are duck-typed here
    from .world import Schedule


def _unit_ratio(name: str, value: Fraction) -> Fraction:
    """``value`` as a ``Fraction``; a ``ValueError`` unless it is in (0, 1]."""
    value = Fraction(value)
    if not 0 < value <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {value}")
    return value


def beta_tilde(beta: Fraction, gamma: Fraction) -> Fraction:
    """Reduced failure ratio (beta - gamma) / (gamma * (beta - 2) + 1).

    Defined for 0 <= gamma <= beta <= 1; at gamma == beta the bound reaches
    exactly 0 (the system may stall even without failures), and any larger
    drop-off rate is a domain error.
    """
    beta, gamma = _unit_ratio("beta", beta), Fraction(gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma > beta:
        raise ValueError(f"gamma must be <= beta (gamma={gamma}, beta={beta})")
    return (beta - gamma) / (gamma * (beta - 2) + 1)


@dataclass(frozen=True)
class ModelParams:
    """Model and protocol parameters for one run.

    ``tau`` (churn window) and ``pi`` (asynchrony window length) belong to
    the model; ``eta`` (vote expiration, ``None`` = never) belongs to the
    protocol.  ``beta`` is the base failure ratio; ``beta_tilde`` is always
    the reduced ratio derived from ``beta`` and ``gamma``, never set.
    """

    tau: int
    eta: int | None
    pi: int
    gamma: Fraction
    beta: Fraction
    beta_tilde: Fraction = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.tau < 0 or self.pi < 0 or (self.eta is not None and self.eta < 0):
            raise ValueError("tau, eta, and pi must be nonnegative")
        _unit_ratio("beta", self.beta)
        if self.gamma >= self.beta:
            raise ValueError(
                f"gamma must be < beta (gamma={self.gamma}, beta={self.beta})"
            )
        # rejects a negative gamma
        object.__setattr__(self, "beta_tilde", beta_tilde(self.beta, self.gamma))

    def async_resilience_gaps(self) -> list[str]:
        """Reasons (empty if none) why the asynchrony-resilience guarantee
        does not apply to these parameters."""
        gaps = []
        if self.pi < 1:
            gaps.append("no asynchronous window (pi < 1)")
        if self.pi >= self.tau:
            gaps.append(f"window not shorter than churn window (pi={self.pi} >= tau={self.tau})")
        if self.eta is not None and self.pi >= self.eta:
            gaps.append(f"window not shorter than expiration (pi={self.pi} >= eta={self.eta})")
        if self.eta != self.tau:
            gaps.append(
                f"churn is bounded over a different span than expiration (tau={self.tau}, eta={self.eta})"
            )
        if self.tau < 2 or (self.eta is not None and self.eta < 2):
            gaps.append("resisting any asynchrony needs tau and eta of at least 2")
        return gaps


@dataclass(frozen=True)
class RoundVerdict:
    round: int
    passed: bool
    vacuous: bool = False
    detail: str = ""


@dataclass(frozen=True)
class CheckResult:
    name: str
    rounds: tuple[RoundVerdict, ...] = ()
    passed: bool = True
    detail: str = ""

    @property
    def failing_rounds(self) -> list[int]:
        return [v.round for v in self.rounds if not v.passed]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failing_rounds": self.failing_rounds,
            "vacuous_rounds": [v.round for v in self.rounds if v.vacuous],
            "detail": self.detail,
        }


def _union(sets: Sequence[frozenset[int]], lo: int, hi: int) -> frozenset[int]:
    """Union of per-round sets over rounds [max(lo, 0), hi], clipped to the
    rounds ``sets`` holds; empty when that range is."""
    return frozenset().union(*sets[max(lo, 0):max(hi + 1, 0)])


def churn_ok(recent: frozenset[int], now: frozenset[int], gamma: Fraction) -> bool:
    """At most a ``gamma`` fraction of ``recent`` is missing from ``now``."""
    return len(recent - now) * gamma.denominator <= gamma.numerator * len(recent)


def ratio_ok(n_byz: int, n_awake: int, beta_tilde: Fraction) -> bool:
    """The Byzantine share of ``n_awake`` stays below ``beta_tilde`` (strict)."""
    return n_byz * beta_tilde.denominator < beta_tilde.numerator * n_awake


def _judge(
    name: str, rounds: Iterable[int], rule: Callable[[int], str | None], detail: str = ""
) -> CheckResult:
    """One verdict per round: ``rule(r)`` is ``None`` for a vacuous pass,
    ``""`` for a pass and the reason for a failure.  A non-empty ``detail``
    fails the check as a whole."""
    verdicts = []
    for r in rounds:
        why = rule(r)
        verdicts.append(RoundVerdict(r, not why, vacuous=why is None, detail=why or ""))
    passed = all(v.passed for v in verdicts) and not detail
    return CheckResult(name, tuple(verdicts), passed, detail)


def check_churn(schedule: "Schedule", tau: int, gamma: Fraction) -> CheckResult:
    """Per round r: |H_[r-tau, r-1] \\ H_r| <= gamma * |H_[r-tau, r-1]|."""
    gamma = Fraction(gamma)

    def rule(r: int) -> str | None:
        window, now = _union(schedule.awake_honest, r - tau, r - 1), schedule.awake_honest[r]
        if not window:
            return None
        absent = len(window - now)
        return "" if churn_ok(window, now, gamma) else f"{absent}/{len(window)} dropped off"

    return _judge("churn_bound", range(schedule.horizon), rule)


def check_failure_ratio(schedule: "Schedule", beta_tilde: Fraction) -> CheckResult:
    """Per round r: |B_r| < beta_tilde * |S_r| (strict)."""
    beta_tilde = Fraction(beta_tilde)

    def rule(r: int) -> str:
        nb, ns = len(schedule.byzantine[r]), len(schedule.awake(r))
        return "" if ratio_ok(nb, ns, beta_tilde) else f"{nb} Byzantine of {ns} awake"

    return _judge("failure_ratio", range(schedule.horizon), rule)


def _quorum(schedule: "Schedule", tau: int, beta: Fraction, who: str) -> Callable[[int, int], str]:
    """``rule(r, count)``: a pass when ``count`` processes exceed a (1 - beta)
    fraction of everyone awake over rounds [r - tau, r] (strict), else the
    reason, naming the counted processes ``who``."""
    beta = Fraction(beta)
    d, keep = beta.denominator, beta.denominator - beta.numerator
    awake = [schedule.awake(r) for r in range(len(schedule.awake_honest))]

    def rule(r: int, count: int) -> str:
        pool = len(_union(awake, r - tau, r))
        return "" if count * d > keep * pool else f"{count} {who} vs pool {pool}"

    return rule


def check_async_conditions(
    schedule: "Schedule", r_a: int, pi: int, tau: int, beta: Fraction
) -> CheckResult:
    """Support for an asynchronous window [r_a+1, r_a+pi].

    For every round of the window and the first synchronous round after it,
    the survivors of the last-synchronous-round awake set must exceed a
    (1 - beta) fraction of everyone awake over the trailing tau rounds; and
    that awake set must still be intact at the end of round r_a.
    """
    h_ra = schedule.awake_honest[r_a]
    rounds = len(schedule.awake_honest)
    quorum = _quorum(schedule, tau, beta, "survivors")

    def rule(r: int) -> str:
        if r >= rounds:
            return "round beyond schedule"
        return quorum(r, len(h_ra - schedule.byzantine[r]))

    contained = r_a + 1 < rounds and h_ra <= schedule.awake_honest[r_a + 1]
    return _judge(
        "async_support", range(r_a + 1, r_a + pi + 2), rule,
        "" if contained else "awake set not contained in the next round",
    )


def check_tau_sleepiness(schedule: "Schedule", tau: int, beta: Fraction) -> CheckResult:
    """Per round r: |H_r| > (1 - beta) * |S_[r-tau, r]| (strict)."""
    quorum = _quorum(schedule, tau, beta, "awake honest")
    return _judge(
        "tau_sleepiness", range(schedule.horizon), lambda r: quorum(r, len(schedule.awake_honest[r]))
    )


@dataclass(frozen=True)
class ModelReport:
    churn: CheckResult
    failure_ratio: CheckResult
    async_support: CheckResult | None
    tau_sleepiness: CheckResult
    params: ModelParams

    @property
    def all_pass(self) -> bool:
        core = self.churn.passed and self.failure_ratio.passed
        if self.async_support is not None:
            core = core and self.async_support.passed
        return core

    @property
    def sleepy_pass(self) -> bool:
        return self.churn.passed and self.failure_ratio.passed

    def to_dict(self) -> dict:
        out = {
            "churn": self.churn.to_dict(),
            "failure_ratio": self.failure_ratio.to_dict(),
            "tau_sleepiness": self.tau_sleepiness.to_dict(),
            "all_pass": self.all_pass,
            "async_resilience_gaps": self.params.async_resilience_gaps(),
        }
        if self.async_support is not None:
            out["async_support"] = self.async_support.to_dict()
        return out


def check_all(schedule: "Schedule") -> ModelReport:
    """Run every validator with the schedule's own parameters.

    A schedule is frozen, so its report is computed on the first call and
    kept on it; a later call, such as ``cli.run_scenario``'s on the schedule
    ``world.generate_schedule`` accepted, returns the same report."""
    if schedule.model_report is None:
        p = schedule.params
        async_result = None
        if schedule.r_a is not None and schedule.pi > 0:
            async_result = check_async_conditions(
                schedule, schedule.r_a, schedule.pi, p.tau, p.beta
            )
        report = ModelReport(
            churn=check_churn(schedule, p.tau, p.gamma),
            failure_ratio=check_failure_ratio(schedule, p.beta_tilde),
            async_support=async_result,
            tau_sleepiness=check_tau_sleepiness(schedule, p.tau, p.beta),
            params=p,
        )
        object.__setattr__(schedule, "model_report", report)
    return schedule.model_report
