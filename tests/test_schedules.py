import re

import numpy as np
import pytest

from pdfp import (
    Iterate,
    ScheduleSpec,
    SparseMatrix,
    bb_dynamic_schedule,
    bb_gamma_raw,
    constant_schedule,
    convergent_perturbation_schedule,
    identity_op,
    l1_norm_fn,
    make_problem,
    matrix_op,
    quadratic_fn,
    rate_certificate,
)


@pytest.fixture(scope="module")
def quad2():
    # f2 = 0.5 ||A x - b||^2 with A = diag(1, 2)
    M = SparseMatrix(2, 2, ([0, 1], [0, 1], [1.0, 2.0]))
    f2 = quadratic_fn(matrix_op(M), np.zeros(2))
    return make_problem(l1_norm_fn(2, weight=0.1), f2, identity_op(2))


class TestConstantSchedule:
    def test_interior_values_accepted(self, lasso1d):
        sched = constant_schedule(lasso1d.beta, lasso1d.lambda_hi, 0.5, problem=lasso1d)
        assert sched.gamma(0, None) == lasso1d.beta
        assert sched.lam(7, None) == lasso1d.lambda_hi
        assert sched.alpha(3, None) == 0.5

    def test_gamma_at_two_beta_rejected(self, lasso1d):
        with pytest.raises(ValueError):
            constant_schedule(2.0 * lasso1d.beta, lasso1d.lambda_hi, problem=lasso1d)

    def test_lambda_upper_end_is_admissible(self, lasso1d):
        # the dual stepsize range is closed above
        sched = constant_schedule(lasso1d.beta, lasso1d.lambda_hi, problem=lasso1d)
        assert sched.lam(0, None) == lasso1d.lambda_hi
        with pytest.raises(ValueError):
            constant_schedule(lasso1d.beta, lasso1d.lambda_hi * 1.0001, problem=lasso1d)

    def test_alpha_range(self, lasso1d):
        with pytest.raises(ValueError):
            constant_schedule(lasso1d.beta, lasso1d.lambda_hi, alpha=1.0, problem=lasso1d)


def bb_dynamic_clamped_at(gamma, lam, problem):
    """``bb_dynamic_schedule`` at ``lam`` whose clamp tops out at ``gamma``."""
    return bb_dynamic_schedule(problem, lambda0=lam, clamp=(0.01 * problem.beta, gamma))


def certificate_at(gamma, lam, problem):
    """``rate_certificate`` at ``gamma`` and ``lam``, relaxation range (0.1, 0.9), sigma 1."""
    return rate_certificate(problem, gamma, lam, 0.1, 0.9, 1.0)


@pytest.mark.parametrize(
    "build",
    [constant_schedule, convergent_perturbation_schedule, bb_dynamic_clamped_at, certificate_at])
def test_gamma_within_solver_margin_of_two_beta_rejected(lasso1d, build):
    # the solvers reject gamma within 1e-12 beta of 2 beta; so do the
    # schedules and the certificate, before any step is taken
    gamma = 2.0 * lasso1d.beta - 0.5e-12 * lasso1d.beta
    assert gamma < 2.0 * lasso1d.beta
    with pytest.raises(ValueError, match="iteration 0"):
        build(gamma, lasso1d.lambda_hi, problem=lasso1d)


class TestAdaptiveGamma:
    def test_identity_zero_data_gives_unit_quotient(self):
        f2 = quadratic_fn(identity_op(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        # residual norm squared over gradient norm squared is exactly one
        assert bb_gamma_raw(f2, x) == pytest.approx(1.0, rel=1e-14)

    def test_hand_computed_quotient(self, quad2):
        # A=diag(1,2), b=0, x=(1,1): ||Ax||^2 = 5, ||A^T A x||^2 = 1 + 16 = 17
        raw = bb_gamma_raw(quad2.f2, np.array([1.0, 1.0]))
        assert raw == pytest.approx(5.0 / 17.0, rel=1e-14)

    def test_zero_residual_clamps_low(self, quad2):
        sched = bb_dynamic_schedule(quad2)
        # at the exact solution the residual (and gradient) vanish; the
        # zero numerator wins and the lower clamp is emitted
        g = sched.gamma(0, Iterate.at(quad2.f2, np.zeros(2)))
        assert g == pytest.approx(0.01 * quad2.beta)

    def test_zero_gradient_with_residual_clamps_high(self):
        # wide matrix: at the normal-equations solution the gradient is zero
        # while the residual is not
        M = SparseMatrix(2, 1, ([0, 1], [0, 0], [1.0, -1.0]))
        f2 = quadratic_fn(matrix_op(M), np.array([1.0, 1.0]))
        p = make_problem(l1_norm_fn(1, weight=0.1), f2, identity_op(1))
        sched = bb_dynamic_schedule(p)
        g = sched.gamma(0, Iterate.at(f2, np.zeros(1)))  # grad = A^T b = 0, residual = b
        assert g == pytest.approx(1.99 * p.beta)

    def test_emitted_values_always_in_clamp(self, quad2):
        rng = np.random.default_rng(0)
        sched = bb_dynamic_schedule(quad2)
        lo, hi = 0.01 * quad2.beta, 1.99 * quad2.beta
        for n in range(100000):
            x = rng.standard_normal(2) * rng.uniform(0, 100)
            g = sched.gamma(n, Iterate.at(quad2.f2, x))
            assert lo <= g <= hi
        assert sched.lam(0, None) == quad2.lambda_hi

    def test_lambda_held_constant(self, quad2):
        sched = bb_dynamic_schedule(quad2, lambda0=0.3)
        rng = np.random.default_rng(1)
        vals = {sched.lam(n, rng.standard_normal(2)) for n in range(50)}
        assert vals == {0.3}

    @pytest.mark.parametrize("alpha0", [float("nan"), -0.3, 1.0, 1.5])
    def test_alpha0_outside_unit_interval_rejected(self, quad2, alpha0):
        # once clipped into a clamp, NaN to its upper end; an admissible
        # alpha0 once ran clipped into [0.1, 0.9], and now runs as given
        with pytest.raises(ValueError, match="alpha="):
            bb_dynamic_schedule(quad2, alpha0=alpha0)
        assert bb_dynamic_schedule(quad2, alpha0=0.95).alpha(0, None) == 0.95

    @pytest.mark.parametrize("scale", [float("nan"), -1.0, 0.0, 1.5, 40.0])
    def test_lambda0_outside_its_range_rejected(self, quad2, scale):
        # once clipped into a clamp, so 40 times the bound ran at the bound; an
        # admissible lambda0 once ran clipped into [1e-6, 1] * lambda_hi, and
        # now runs as given
        with pytest.raises(ValueError, match="lambda="):
            bb_dynamic_schedule(quad2, lambda0=scale * quad2.lambda_hi)
        for lam in (1e-9 * quad2.lambda_hi, 0.5 * quad2.lambda_hi):
            assert bb_dynamic_schedule(quad2, lambda0=lam).lam(0, None) == lam

    def test_requires_quadratic_data_term(self):
        from pdfp import SmoothFn

        f2 = SmoothFn(dim=2, value=lambda x: 0.0, grad=lambda x: np.zeros(2), lipschitz=1.0)
        p = make_problem(l1_norm_fn(2), f2, identity_op(2))
        with pytest.raises(ValueError):
            bb_dynamic_schedule(p)


class TestConvergentPerturbation:
    def test_zero_decay_reduces_to_constant(self, lasso1d):
        a = convergent_perturbation_schedule(0.5, 0.5, decay=0.0, problem=lasso1d)
        b = constant_schedule(0.5, 0.5, problem=lasso1d)
        for n in (0, 10, 1000):
            assert a.gamma(n, None) == b.gamma(n, None)
            assert a.lam(n, None) == b.lam(n, None)
        # above 2 beta (1 - 1e-9), yet inside the solvers' range: both emit it exactly
        gamma = 2.0 * lasso1d.beta * (1.0 - 1e-10)
        a = convergent_perturbation_schedule(gamma, 0.5, decay=0.0, problem=lasso1d)
        b = constant_schedule(gamma, 0.5, problem=lasso1d)
        for n in (0, 10, 1000):
            assert a.gamma(n, None) == b.gamma(n, None) == gamma
            assert a.lam(n, None) == b.lam(n, None) == 0.5

    def test_monotone_decay_to_limit(self, lasso1d):
        sched = convergent_perturbation_schedule(0.5, 0.5, decay=0.3, problem=lasso1d)
        gs = [sched.gamma(n, None) for n in range(1000)]
        assert all(a >= b for a, b in zip(gs, gs[1:]))
        assert gs[-1] == pytest.approx(0.5, abs=1e-3)

    def test_first_emission_arithmetic(self):
        sched = convergent_perturbation_schedule(1.0, 0.5, decay=0.5)
        assert sched.gamma(0, None) == pytest.approx(1.5)


class TestScheduleSpec:
    def test_constant_spec_builds(self, lasso1d):
        spec = ScheduleSpec(kind="constant", gamma0=0.7, lambda0=0.9, alpha0=0.2)
        sched = spec.build(lasso1d)
        assert sched.gamma(0, None) == 0.7
        assert sched.alpha(0, None) == 0.2

    def test_unknown_kind_rejected(self, lasso1d):
        with pytest.raises(ValueError):
            ScheduleSpec(kind="linesearch").build(lasso1d)

    @pytest.mark.parametrize("alpha0", [float("nan"), -0.3])
    def test_bb_dynamic_alpha0_reaches_the_schedule(self, quad2, alpha0):
        # only the unset default None stands for 0.5; NaN, negatives and an
        # explicit 0 once did too
        assert ScheduleSpec(kind="bb_dynamic").build(quad2).alpha(0, None) == 0.5
        with pytest.raises(ValueError, match="alpha="):
            ScheduleSpec(kind="bb_dynamic", alpha0=alpha0).build(quad2)

    def test_explicit_zero_alpha0_is_used(self, quad2, lasso1d):
        assert ScheduleSpec(kind="constant", alpha0=0.0).build(lasso1d).alpha(0, None) == 0.0
        assert ScheduleSpec(kind="constant").build(lasso1d).alpha(0, None) == 0.5
        # bb_dynamic once ran it at 0.5, then clipped it to 0.1
        assert ScheduleSpec(kind="bb_dynamic", alpha0=0.0).build(quad2).alpha(0, None) == 0.0

    def test_defaults_derive_from_problem(self, lasso1d):
        sched = ScheduleSpec(kind="constant").build(lasso1d)
        assert sched.gamma(0, None) == pytest.approx(1.99 * lasso1d.beta)
        assert sched.lam(0, None) == lasso1d.lambda_hi


# Clamps refused with a ValueError, and the words that name what is wrong;
# a clamp is (gamma_lo, gamma_hi).
NAMED_ERRORS = {
    "gamma-order": ((0.4, 0.2), "gamma clamp must have gamma_lo <= gamma_hi"),
    # the lambda and alpha ends of a former six-end clamp, which clipped
    # lambda and alpha, are refused rather than dropped
    "six-ends": ((None,) * 6, "clamp must be (gamma_lo, gamma_hi), got 6 ends"),
}


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_named_errors(case, quad2):
    clamp, named = NAMED_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(named)):
        bb_dynamic_schedule(quad2, clamp=clamp)
