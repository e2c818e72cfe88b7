import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sleepy_tob.model_checks import (
    ModelParams,
    beta_tilde,
    check_async_conditions,
    check_churn,
    check_failure_ratio,
    check_tau_sleepiness,
)
from sleepy_tob.world import Schedule

THIRD = Fraction(1, 3)


def fig_curve(gamma: Fraction) -> Fraction:
    """Independent closed form of the curve at a two-thirds threshold."""
    return Fraction(1 - 3 * gamma, 3 - 5 * gamma)


class TestBetaTilde:
    def test_static_participation_keeps_base_ratio(self):
        assert beta_tilde(THIRD, Fraction(0)) == THIRD

    def test_stall_point(self):
        assert beta_tilde(THIRD, THIRD) == 0

    def test_spot_value_against_independent_form(self):
        assert beta_tilde(THIRD, Fraction(1, 10)) == Fraction(7, 25)
        assert Fraction(7, 25) == fig_curve(Fraction(1, 10))

    @given(st.fractions(min_value=0, max_value=Fraction(1, 3)))
    def test_matches_independent_form_everywhere(self, gamma):
        assert beta_tilde(THIRD, gamma) == fig_curve(gamma)

    def test_domain_error_beyond_beta(self):
        with pytest.raises(ValueError, match=r"^gamma must be <= beta \(gamma=1/2, beta=1/3\)$"):
            beta_tilde(THIRD, Fraction(1, 2))

    def test_monotonically_decreasing_on_grid(self):
        grid = [Fraction(k, 300) for k in range(100)]
        vals = [beta_tilde(THIRD, g) for g in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] == THIRD
        assert beta_tilde(THIRD, THIRD - Fraction(1, 10**9)) < Fraction(1, 10**8)


def mk_schedule(awake, byz, params, horizon=None, r_a=None):
    horizon = horizon if horizon is not None else len(awake) - 1
    byz = [frozenset(b) for b in byz]
    return Schedule(
        n=30,
        horizon=horizon,
        awake_honest=tuple(frozenset(a) for a in awake),
        byzantine=tuple(byz),
        r_a=r_a,
        params=params,
    )


def params(tau=2, eta=2, pi=0, gamma="0", beta="1/3"):
    return ModelParams(
        tau=tau,
        eta=eta,
        pi=pi,
        gamma=Fraction(gamma),
        beta=Fraction(beta),
    )


class TestChurn:
    def test_constant_participation_passes_any_gamma(self):
        awake = [frozenset(range(10))] * 9
        sched = mk_schedule(awake, [frozenset()] * 9, params())
        result = check_churn(sched, tau=3, gamma=Fraction(0))
        assert result.passed

    def test_two_absent_of_ten_fails_ten_percent(self):
        awake = [frozenset(range(10))] * 4 + [frozenset(range(8))] * 2
        sched = mk_schedule(awake, [frozenset()] * 6, params())
        result = check_churn(sched, tau=3, gamma=Fraction(1, 10))
        assert not result.passed
        assert 4 in result.failing_rounds  # 2 dropped > 0.1 * 10

    def test_tau_zero_vacuous(self):
        awake = [frozenset(range(10)), frozenset(range(2)), frozenset(range(10))]
        sched = mk_schedule(awake, [frozenset()] * 3, params())
        result = check_churn(sched, tau=0, gamma=Fraction(0))
        assert result.passed
        assert all(v.vacuous for v in result.rounds)


class TestFailureRatio:
    def test_no_byzantine_passes(self):
        sched = mk_schedule(
            [frozenset(range(5))] * 4, [frozenset()] * 4, params()
        )
        assert check_failure_ratio(sched, Fraction(1, 100)).passed

    def test_three_of_ten_fails_reduced_ratio(self):
        # |S_r| = 10, reduced bound 7/25: 3 >= 2.8 fails
        sched = mk_schedule(
            [frozenset(range(7))] * 4, [frozenset(range(20, 23))] * 4, params()
        )
        result = check_failure_ratio(sched, Fraction(7, 25))
        assert not result.passed

    def test_gamma_zero_same_verdicts_as_base(self):
        sched = mk_schedule(
            [frozenset(range(7))] * 4, [frozenset(range(20, 23))] * 4, params()
        )
        derived = beta_tilde(THIRD, Fraction(0))
        a = [v.passed for v in check_failure_ratio(sched, derived).rounds]
        b = [v.passed for v in check_failure_ratio(sched, THIRD).rounds]
        assert a == b


class TestAsyncConditions:
    def test_worked_numbers_pass(self):
        # 7 awake-honest at r_a, 2 disjoint byzantine, pool of 9: 7 > 6
        awake = [frozenset(range(7))] * 8
        byz = [frozenset({27, 28})] * 8
        sched = mk_schedule(awake, byz, params(pi=2), r_a=2)
        result = check_async_conditions(sched, r_a=2, pi=2, tau=2, beta=THIRD)
        assert result.passed

    def test_all_corrupted_fails(self):
        awake = [frozenset(range(4))] * 8
        byz = [frozenset(range(4, 8)) if r < 3 else frozenset(range(8)) for r in range(8)]
        awake = [a - byz[i] for i, a in enumerate(awake)]
        sched = mk_schedule(awake, byz, params(pi=2), r_a=2)
        result = check_async_conditions(sched, r_a=2, pi=2, tau=2, beta=THIRD)
        assert not result.passed

    def test_containment_violation_fails(self):
        awake = [frozenset(range(7))] * 3 + [frozenset(range(6))] + [frozenset(range(7))] * 4
        byz = [frozenset()] * 8
        sched = mk_schedule(awake, byz, params(pi=1), r_a=2)
        result = check_async_conditions(sched, r_a=2, pi=1, tau=2, beta=THIRD)
        assert not result.passed


class TestTauSleepiness:
    def test_worked_numbers(self):
        awake = [frozenset(range(7))] * 3
        byz = [frozenset({27, 28})] * 3
        sched = mk_schedule(awake, byz, params())
        assert check_tau_sleepiness(sched, tau=0, beta=THIRD).passed

    def test_boundary_exact_fails(self):
        # |H_r| = 6, pool = 9, (1 - 1/3) * 9 = 6: strict comparison fails
        awake = [frozenset(range(6))] * 3
        byz = [frozenset({27, 28, 29})] * 3
        sched = mk_schedule(awake, byz, params())
        result = check_tau_sleepiness(sched, tau=0, beta=THIRD)
        assert not result.passed


class TestModelParams:
    def test_gamma_must_be_below_beta(self):
        with pytest.raises(ValueError, match="gamma must be < beta"):
            params(gamma="1/3")

    def test_negative_gamma_has_its_own_message(self):
        for build in (lambda: params(gamma="-1/10"), lambda: beta_tilde(THIRD, Fraction(-1, 10))):
            with pytest.raises(ValueError, match="^gamma must be >= 0, got -1/10$"):
                build()

    def test_derived_beta_tilde(self):
        p = params(gamma="1/10")
        assert p.beta_tilde == Fraction(7, 25)

    def test_override_beta_tilde(self):
        # the reduced ratio is derived from beta and gamma, never set
        with pytest.raises(TypeError, match="beta_tilde"):
            ModelParams(tau=2, eta=2, pi=0, gamma=Fraction(1, 10), beta=THIRD,
                        beta_tilde=Fraction(1, 5))

    def test_async_gaps(self):
        assert params(tau=4, eta=4, pi=2).async_resilience_gaps() == []
        assert params(tau=0, eta=0, pi=2).async_resilience_gaps()
        assert params(tau=4, eta=4, pi=0).async_resilience_gaps()
        # churn bounded over a different span than expiration
        assert params(tau=2, eta=4, pi=1).async_resilience_gaps()
        assert params(tau=4, eta=None, pi=2).async_resilience_gaps()


from helpers import random_bounded_schedule


def test_bounds_imply_sleepiness_sampled():
    """Rounds satisfying both the churn and failure-ratio bounds always
    satisfy the sleepiness condition (small sample; the acceptance suite
    runs the full-size version)."""
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        sched = random_bounded_schedule(rng)
        p = sched.params
        churn = check_churn(sched, p.tau, p.gamma).rounds
        ratio = check_failure_ratio(sched, p.beta_tilde).rounds
        sleepy = check_tau_sleepiness(sched, p.tau, p.beta).rounds
        for r in range(sched.horizon):
            if churn[r].passed and ratio[r].passed:
                checked += 1
                assert sleepy[r].passed, f"round {r} of {sched}"
    assert checked > 500
