import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdfp
from pdfp import (
    PDState,
    StoppingRule,
    apply_T,
    apply_Tn,
    chambolle_pock,
    conjugate_prox,
    constant_schedule,
    convergent_perturbation_schedule,
    bb_dynamic_schedule,
    ds_split_x_update,
    identity_op,
    ifp2o,
    l1_norm_fn,
    l1_prox,
    lambda_norm,
    make_deblur_problem,
    make_denoise_problem,
    make_lasso_problem,
    make_problem,
    matrix_op,
    optimality_residual,
    pdfp2o,
    pdfp2o_ds,
    pdfp2o_dsn,
    pdfp2o_kappa,
    pfbs_fp2o,
    quadratic_fn,
    saddle_step,
    siu,
    siu_x_update,
    zero_prox_fn,
    Schedule,
    SparseMatrix,
    TomoGeometry,
    make_tomo_problem,
    make_tv_problem,
)
from pdfp.solvers import _drive, _mann, _quadratic_resolvent
from conftest import DENOISE4_REF_OBJECTIVE, build_deblur8, build_denoise4, build_lasso1d

TIGHT = StoppingRule(tol=1e-13, max_iter=200000)


def assert_traces_bitwise(t1, t2):
    """Bit-exact equality of everything except wall-clock columns."""
    for name in ("iters", "gammas", "lams", "objectives", "residuals", "snrs", "relerrs"):
        np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name), err_msg=name)


def diag_quadratic_problem(diag, b, reg=0.05):
    n = len(diag)
    M = SparseMatrix(n, n, (np.arange(n), np.arange(n), np.asarray(diag, float)))
    f2 = quadratic_fn(matrix_op(M), np.asarray(b, float))
    return make_problem(l1_norm_fn(n, weight=reg), f2, identity_op(n))


class TestApplyT:
    def test_zero_f1_collapses_to_gradient_step(self):
        p = make_problem(zero_prox_fn(1), quadratic_fn(identity_op(1), np.array([2.0])),
                         identity_op(1))
        u = PDState(np.array([0.5]), np.array([5.0]))
        out = apply_T(p, 1.0, 1.0, u)
        # I - prox of the zero function vanishes, leaving the plain forward step
        np.testing.assert_allclose(out.v, [0.0], atol=0)
        np.testing.assert_allclose(out.x, [5.0 - (5.0 - 2.0)], atol=0)

    def test_fixed_point_of_scalar_shrinkage_problem(self, lasso1d):
        # brute-force grid search localizes the minimizer of 0.1|x| + 0.5(x-1)^2
        xs = np.linspace(-2.0, 2.0, 400001)
        vals = 0.1 * np.abs(xs) + 0.5 * (xs - 1.0) ** 2
        x_brute = xs[np.argmin(vals)]
        assert abs(x_brute - 0.9) <= 1e-5
        # the dual coordinate then follows from the gradient balance
        gamma = lam = 1.0
        u_hat = PDState(np.array([0.1 * gamma / lam]), np.array([0.9]))
        out = apply_T(lasso1d, gamma, lam, u_hat)
        assert lambda_norm(PDState(out.v - u_hat.v, out.x - u_hat.x), lam) <= 1e-10

    def test_nonexpansive_under_lambda_norm(self, denoise4):
        rng = np.random.default_rng(0)
        p = denoise4
        for _ in range(5):
            gamma = float(rng.uniform(0.05, 1.95)) * p.beta
            lam = float(rng.uniform(0.1, 1.0)) * p.lambda_hi
            for _ in range(200):
                u1 = PDState(rng.standard_normal(32), rng.standard_normal(16))
                u2 = PDState(rng.standard_normal(32), rng.standard_normal(16))
                T1 = apply_T(p, gamma, lam, u1)
                T2 = apply_T(p, gamma, lam, u2)
                lhs = lambda_norm(PDState(T1.v - T2.v, T1.x - T2.x), lam)
                rhs = lambda_norm(PDState(u1.v - u2.v, u1.x - u2.x), lam)
                assert lhs <= rhs + 1e-9

    def test_rejects_out_of_range_parameters(self, lasso1d):
        u = lasso1d.zeros()
        with pytest.raises(ValueError):
            apply_T(lasso1d, 2.0 * lasso1d.beta, 1.0, u)
        with pytest.raises(ValueError):
            apply_T(lasso1d, 1.0, 1.5, u)


class TestPdfp2o:
    def test_pure_gradient_problem_solves_in_one_iteration(self):
        b = np.array([0.3, -1.2, 4.0])
        p = make_problem(zero_prox_fn(3), quadratic_fn(identity_op(3), b), identity_op(3))
        u, tr = pdfp2o(p, 1.0, 1.0, stop=StoppingRule(tol=1e-12, max_iter=50))
        np.testing.assert_allclose(u.x, b, atol=0)
        assert tr.converged

    def test_denoise4_reaches_reference_objective(self, denoise4):
        u, tr = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, stop=TIGHT)
        assert tr.converged
        assert denoise4.objective(u.x) == pytest.approx(DENOISE4_REF_OBJECTIVE, abs=1e-6)

    def test_distance_to_limit_is_nonincreasing(self, denoise4):
        u_hat, _ = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, stop=TIGHT)
        _, tr = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi,
                       stop=StoppingRule(tol=0.0, max_iter=150), ref=u_hat)
        d = tr.dist_ref
        assert np.all(d[1:] <= d[:-1] + 1e-10)

    def test_budget_exhaustion_flags_nonconvergence(self, denoise4):
        _, tr = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi,
                       stop=StoppingRule(tol=1e-16, max_iter=3))
        assert not tr.converged
        assert tr.n_iter == 3


class TestPdfp2oKappa:
    def test_zero_relaxation_is_bit_identical(self, denoise4):
        stop = StoppingRule(tol=0.0, max_iter=100)
        _, t1 = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, stop=stop)
        _, t2 = pdfp2o_kappa(denoise4, denoise4.beta, denoise4.lambda_hi, 0.0, stop=stop)
        assert_traces_bitwise(t1, t2)

    def test_half_relaxation_reaches_same_limit(self, lasso1d):
        u0, _ = pdfp2o(lasso1d, 1.0, 1.0, stop=TIGHT)
        u5, tr = pdfp2o_kappa(lasso1d, 1.0, 1.0, 0.5, stop=TIGHT)
        assert tr.converged
        assert abs(u5.x[0] - u0.x[0]) <= 1e-8

    def test_near_one_relaxation_scales_first_step(self, denoise4):
        stop = StoppingRule(tol=0.0, max_iter=1)
        u0 = denoise4.zeros()
        _, t_plain = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, u0=u0, stop=stop)
        _, t_slow = pdfp2o_kappa(denoise4, denoise4.beta, denoise4.lambda_hi, 0.999,
                                 u0=u0, stop=stop)
        # first-step movement shrinks by exactly (1 - kappa)
        ratio = t_slow.residuals[0] / t_plain.residuals[0]
        assert ratio == pytest.approx(1.0, rel=1e-12)  # residual is pre-relaxation
        # measure actual movement through the recorded objectives instead
        u_plain, _ = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, u0=u0, stop=stop)
        u_slow, _ = pdfp2o_kappa(denoise4, denoise4.beta, denoise4.lambda_hi, 0.999,
                                 u0=u0, stop=stop)
        move_plain = lambda_norm(PDState(u_plain.v - u0.v, u_plain.x - u0.x), denoise4.lambda_hi)
        move_slow = lambda_norm(PDState(u_slow.v - u0.v, u_slow.x - u0.x), denoise4.lambda_hi)
        assert move_slow / move_plain == pytest.approx(1.0 - 0.999, rel=1e-12)

    def test_rejects_kappa_outside_range(self, lasso1d):
        with pytest.raises(ValueError):
            pdfp2o_kappa(lasso1d, 1.0, 1.0, 1.0)


class TestPdfp2oDs:
    def test_constant_schedule_is_bit_identical(self, denoise4):
        stop = StoppingRule(tol=0.0, max_iter=100)
        sched = constant_schedule(denoise4.beta, denoise4.lambda_hi, problem=denoise4)
        _, t1 = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, stop=stop)
        _, t2 = pdfp2o_ds(denoise4, sched, stop=stop)
        assert_traces_bitwise(t1, t2)

    def test_adaptive_schedule_reaches_constant_step_limit(self):
        p = diag_quadratic_problem([1.0, 1.5, 2.0], [1.0, -2.0, 0.5])
        u_const, _ = pdfp2o(p, p.beta, p.lambda_hi, stop=TIGHT)
        sched = bb_dynamic_schedule(p, lambda0=p.lambda_hi)
        u_bb, tr = pdfp2o_ds(p, sched, stop=TIGHT)
        assert tr.converged
        assert np.linalg.norm(u_bb.x - u_const.x) <= 1e-8

    def test_single_iteration_equals_indexed_operator(self, denoise4):
        sched = convergent_perturbation_schedule(
            0.8 * denoise4.beta, 0.9 * denoise4.lambda_hi, decay=0.05, problem=denoise4
        )
        rng = np.random.default_rng(1)
        u = PDState(rng.standard_normal(32), rng.standard_normal(16))
        _, tr = pdfp2o_ds(denoise4, sched, u0=u, stop=StoppingRule(tol=0.0, max_iter=3),
                          record_iterates=True)
        stepped = u.copy()
        for n in range(3):
            stepped = apply_Tn(denoise4, sched, n, stepped)
            np.testing.assert_array_equal(stepped.v, tr.iterates[n + 1].v)
            np.testing.assert_array_equal(stepped.x, tr.iterates[n + 1].x)

    def test_schedule_violation_names_iteration(self, denoise4):
        sched = Schedule(
            gamma=lambda n, x: denoise4.beta if n != 3 else 10.0 * denoise4.beta,
            lam=lambda n, x: denoise4.lambda_hi,
            alpha=lambda n, x: 0.0,
        )
        with pytest.raises(ValueError, match="iteration 3"):
            pdfp2o_ds(denoise4, sched, stop=StoppingRule(tol=0.0, max_iter=10))


class TestPdfp2oDsn:
    def test_zero_alpha_is_bit_identical_to_ds(self, denoise4):
        stop = StoppingRule(tol=0.0, max_iter=100)
        sched = constant_schedule(0.9 * denoise4.beta, denoise4.lambda_hi, alpha=0.0,
                                  problem=denoise4)
        _, t1 = pdfp2o_ds(denoise4, sched, stop=stop)
        _, t2 = pdfp2o_dsn(denoise4, sched, stop=stop)
        assert_traces_bitwise(t1, t2)

    def test_half_alpha_reaches_same_limit(self, lasso1d):
        u_ref, _ = pdfp2o(lasso1d, 1.0, 1.0, stop=TIGHT)
        sched = constant_schedule(1.0, 1.0, alpha=0.5, problem=lasso1d)
        u, tr = pdfp2o_dsn(lasso1d, sched, stop=TIGHT)
        assert tr.converged
        assert abs(u.x[0] - u_ref.x[0]) <= 1e-8

    def test_fejer_monotone_against_limit(self, denoise4):
        sched = constant_schedule(denoise4.beta, denoise4.lambda_hi, alpha=0.4,
                                  problem=denoise4)
        u_hat, _ = pdfp2o_dsn(denoise4, sched, stop=TIGHT)
        _, tr = pdfp2o_dsn(denoise4, sched, stop=StoppingRule(tol=0.0, max_iter=200),
                           ref=u_hat)
        d = tr.dist_ref
        assert np.all(d[1:] <= d[:-1] + 1e-10)


class TestPfbsFp2o:
    def test_zero_f1_reduces_to_gradient_descent(self):
        b = np.array([1.0, -0.5])
        p = make_problem(zero_prox_fn(2), quadratic_fn(identity_op(2), b), identity_op(2))
        inner = StoppingRule(tol=1e-12, max_iter=50)
        u, tr = pfbs_fp2o(p, 0.7, 1.0, 0.0, inner, stop=StoppingRule(tol=1e-12, max_iter=500))
        np.testing.assert_allclose(u.x, b, atol=1e-10)
        assert np.all(tr.inner_iters == 1)  # the dual fixed point is found in one step

    def test_denoise4_objective_matches_reference(self, denoise4):
        inner = StoppingRule(tol=1e-12, max_iter=400)
        u, tr = pfbs_fp2o(denoise4, denoise4.beta, denoise4.lambda_hi, 0.0, inner,
                          stop=StoppingRule(tol=1e-12, max_iter=100000))
        assert denoise4.objective(u.x) == pytest.approx(DENOISE4_REF_OBJECTIVE, abs=1e-5)
        assert tr.inner_iters.max() > 1  # the inner loop did real work

    def test_single_warm_inner_iteration_is_bit_identical_to_main_solver(self, denoise4):
        stop = StoppingRule(tol=0.0, max_iter=60)
        one_inner = StoppingRule(tol=0.0, max_iter=1)
        u1, t1 = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, stop=stop)
        u2, t2 = pfbs_fp2o(denoise4, denoise4.beta, denoise4.lambda_hi, 0.0, one_inner,
                           stop=stop, warm_start=True)
        np.testing.assert_array_equal(u1.x, u2.x)
        np.testing.assert_array_equal(u1.v, u2.v)
        np.testing.assert_array_equal(t1.objectives, t2.objectives)


class TestIfp2o:
    def test_zero_f1_returns_direct_solve(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((4, 4))
        Q = M @ M.T + 4.0 * np.eye(4)
        b = rng.standard_normal(4)
        x, tr = ifp2o(Q, b, zero_prox_fn(4), identity_op(4), 1.0, 0.5,
                      stop=StoppingRule(tol=1e-12, max_iter=100))
        np.testing.assert_allclose(x, np.linalg.solve(Q, b), atol=1e-10)

    def test_identity_q_agrees_with_main_solver(self, denoise4):
        # min f1(Dx) + 0.5 x^T x - b^T x has the same minimizer as the
        # denoising objective 0.5||x - b||^2 + f1(Dx)
        b = denoise4.f2.b
        x, tr = ifp2o(np.eye(16), b, denoise4.f1, denoise4.D, denoise4.lambda_hi, 0.3,
                      stop=StoppingRule(tol=1e-13, max_iter=100000))
        u_ref, _ = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, stop=TIGHT)
        assert np.linalg.norm(x - u_ref.x) <= 1e-6

    def test_identity_everything_is_soft_threshold(self):
        b = np.array([2.0, -0.4, 1.5, 0.2])
        x, _ = ifp2o(np.eye(4), b, l1_norm_fn(4, weight=1.0), identity_op(4), 1.0, 0.5,
                     stop=StoppingRule(tol=1e-14, max_iter=10000))
        np.testing.assert_allclose(x, l1_prox(1.0, b), atol=1e-10)

    def test_singular_q_rejected(self):
        Q = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ifp2o(Q, np.ones(2), l1_norm_fn(2), identity_op(2), 1.0, 0.5)

    def test_kappa_bounds(self):
        with pytest.raises(ValueError):
            ifp2o(np.eye(2), np.ones(2), l1_norm_fn(2), identity_op(2), 1.0, 0.0)

    @pytest.fixture(scope="class")
    def denoise32_run(self):
        # 300 steps on a 32x32 denoise problem at Q = I, kappa 0.5
        p, x_true = make_denoise_problem(32, 0.01, 0, 0.02)
        x, tr = ifp2o(np.eye(1024), p.f2.b, p.f1, p.D, p.lambda_hi, 0.5,
                      stop=StoppingRule(0.0, 300), x_true=x_true.ravel())
        return p, x, tr

    def test_identity_q_objective_is_the_problem_objective(self, denoise32_run):
        # the trace adds 0.5 b^T Q^{-1} b to 0.5 x^T Q x - b^T x
        p, x, tr = denoise32_run
        assert tr.objectives[-1] == pytest.approx(p.objective(x), rel=1e-12)

    def test_snr_column_reads_x_true(self, denoise32_run):
        _, _, tr = denoise32_run
        assert np.isfinite(tr.snrs).all() and tr.snrs[-1] > 15.0

    def test_converges_on_lasso(self):
        p, x_true = make_lasso_problem(32, 0.01, 0, 0.05)
        _, tr = ifp2o(np.eye(1024), p.f2.b, p.f1, p.D, p.lambda_hi, 0.5,
                      stop=StoppingRule(1e-8, 2000), x_true=x_true.ravel())
        assert tr.stop_reason == "converged"


class TestChambollePock:
    def test_theta_zero_degenerates_extrapolation(self, denoise4):
        # with theta = 0 the scheme advances the dual on the un-extrapolated
        # primal; replaying the recursion by hand must reproduce the solver
        p = denoise4
        sig, tau = 0.5 * p.lambda_hi / p.beta, p.beta
        _, tr = chambolle_pock(p, sig, tau, 0.0, stop=StoppingRule(tol=0.0, max_iter=5),
                               record_iterates=True)
        vbar = np.zeros(32)
        x = np.zeros(16)
        for k in range(5):
            vbar = conjugate_prox(p.f1, sig, vbar + sig * p.D.forward(x))
            x = (x - tau * p.D.adjoint(vbar) + tau * p.f2.b) / (1.0 + tau)
            np.testing.assert_allclose(tr.iterates[k + 1].v, vbar, atol=1e-15)
            np.testing.assert_allclose(tr.iterates[k + 1].x, x, atol=1e-15)

    def test_denoise4_objective_matches_reference(self, denoise4):
        u, tr = chambolle_pock(denoise4, 0.9 * denoise4.lambda_hi / denoise4.beta,
                               denoise4.beta, 1.0,
                               stop=StoppingRule(tol=1e-13, max_iter=100000))
        assert denoise4.objective(u.x) == pytest.approx(DENOISE4_REF_OBJECTIVE, abs=1e-6)

    def test_saddle_form_step_reproduces_dynamic_solver(self, denoise4):
        rng = np.random.default_rng(3)
        p = denoise4
        for _ in range(20):
            gamma = float(rng.uniform(0.1, 1.9)) * p.beta
            lam = float(rng.uniform(0.1, 1.0)) * p.lambda_hi
            v = rng.standard_normal(32)
            x = rng.standard_normal(16)
            u1 = apply_T(p, gamma, lam, PDState(v, x))
            y0 = x - gamma * p.f2.grad(x) - lam * p.D.adjoint(v)
            vbar1, x1, y1 = saddle_step(p, gamma, lam, (lam / gamma) * v, x, y0)
            assert np.linalg.norm(vbar1 - (lam / gamma) * u1.v) <= 1e-12
            assert np.linalg.norm(x1 - u1.x) <= 1e-12
            y_next = u1.x - gamma * p.f2.grad(u1.x) - lam * p.D.adjoint(u1.v)
            assert np.linalg.norm(y1 - y_next) <= 1e-12

    @pytest.mark.parametrize("name", ["deblur8", "ct16"])
    def test_primal_resolvent_solves_its_linear_system(self, name):
        # the CG solve must meet its 1e-10 relative residual on the true
        # residual, from a zero and from a warm start, without touching x0
        if name == "deblur8":
            p = build_deblur8()
        else:
            geom = TomoGeometry(image_side=16, angles_deg=(0.0, 30.0, 60.0, 90.0, 120.0, 150.0),
                                rays_per_angle=23)
            p = make_tv_problem(make_tomo_problem(geom, 0.01, seed=3), 0.05)
        A, b = p.f2.A, p.f2.b
        rng = np.random.default_rng(11)
        n = A.in_dim
        for tau in (0.1 * p.beta, p.beta, 10.0 * p.beta):
            for x0 in (np.zeros(n), rng.standard_normal(n)):
                w = rng.standard_normal(n)
                x0_before = x0.copy()
                x = _quadratic_resolvent(p.f2, tau)(w, x0)
                rhs = w + tau * A.adjoint(b)
                res = x + tau * A.adjoint(A.forward(x)) - rhs
                assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)
                np.testing.assert_array_equal(x0, x0_before)

    def test_unsupported_smooth_term_raises(self):
        from pdfp import SmoothFn, UnsupportedProblemError

        f2 = SmoothFn(dim=2, value=lambda x: float(np.sum(x ** 4)),
                      grad=lambda x: 4.0 * x ** 3, lipschitz=12.0)
        p = make_problem(l1_norm_fn(2), f2, identity_op(2))
        with pytest.raises(UnsupportedProblemError):
            chambolle_pock(p, 0.4, 0.4, 1.0, stop=StoppingRule(max_iter=2))


def siu_safe_steps(p, nu=1.0):
    """Stepsize inside the explicit-Uzawa stability region of the split scheme."""
    delta = 0.9 / (p.f2.lipschitz + nu * p.lambda_max_ddt)
    return delta, nu


class TestSiu:
    def test_denoise4_objective_matches_reference(self, denoise4):
        delta, nu = siu_safe_steps(denoise4)
        state, tr = siu(denoise4, delta, nu, stop=StoppingRule(tol=1e-13, max_iter=100000))
        assert denoise4.objective(state.x) == pytest.approx(DENOISE4_REF_OBJECTIVE, abs=1e-5)

    def test_split_form_identity_on_random_states(self, denoise4, deblur8):
        rng = np.random.default_rng(4)
        for p in (denoise4, deblur8):
            n, m = p.D.in_dim, p.D.out_dim
            A = p.f2.A
            for _ in range(20):
                x = rng.standard_normal(n)
                d = rng.standard_normal(m)
                v = rng.standard_normal(m)
                delta = float(rng.uniform(0.1, 1.9)) * p.beta
                nu = float(rng.uniform(0.1, 1.0)) * p.lambda_hi / delta
                lhs = ds_split_x_update(p.f2, p.D, delta, nu, x, d, v)
                rhs = siu_x_update(p.f2, p.D, delta, nu, x, d, v)
                coupling = -delta * delta * nu * A.adjoint(
                    A.forward(p.D.adjoint(d - p.D.forward(x)))
                )
                assert np.linalg.norm((lhs - rhs) - coupling) <= 1e-12

    def test_split_variable_tracks_dx_at_convergence(self, denoise4):
        delta, nu = siu_safe_steps(denoise4)
        state, tr = siu(denoise4, delta, nu, stop=StoppingRule(tol=1e-12, max_iter=100000))
        assert tr.converged
        assert np.linalg.norm(state.d - denoise4.D.forward(state.x)) <= 1e-6

    def test_requires_quadratic_data_term(self):
        from pdfp import SmoothFn, UnsupportedProblemError

        f2 = SmoothFn(dim=2, value=lambda x: float(np.sum(x ** 4)),
                      grad=lambda x: 4.0 * x ** 3, lipschitz=12.0)
        p = make_problem(l1_norm_fn(2), f2, identity_op(2))
        with pytest.raises(UnsupportedProblemError):
            siu(p, 0.1, 1.0)


class TestApplyTn:
    def test_constant_schedule_matches_apply_T(self, denoise4):
        sched = constant_schedule(0.8 * denoise4.beta, denoise4.lambda_hi, problem=denoise4)
        rng = np.random.default_rng(5)
        u = PDState(rng.standard_normal(32), rng.standard_normal(16))
        for n in (0, 1, 17):
            a = apply_Tn(denoise4, sched, n, u)
            b = apply_T(denoise4, 0.8 * denoise4.beta, denoise4.lambda_hi, u)
            np.testing.assert_array_equal(a.v, b.v)
            np.testing.assert_array_equal(a.x, b.x)

    def test_indexed_operator_converges_to_limit_operator(self, denoise4):
        # as the perturbation decays, the indexed operator approaches the
        # constant-step operator on a fixed bounded state
        p = denoise4
        gamma, lam = 0.5 * p.beta, 0.5 * p.lambda_hi
        rng = np.random.default_rng(6)
        u = PDState(rng.standard_normal(32), rng.standard_normal(16))
        Tu = apply_T(p, gamma, lam, u)

        def gap(decay, n):
            sched = convergent_perturbation_schedule(gamma, lam, decay=decay, problem=p)
            Tn_u = apply_Tn(p, sched, n, u)
            return lambda_norm(PDState(Tn_u.v - Tu.v, Tn_u.x - Tu.x), lam)

        gaps = [gap(0.05, n) for n in (10, 100, 1000, 10000)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        # the gap scales with the perturbation, which decays like 1/(n+1)
        assert gaps[3] <= 2.0 * gaps[0] * 11.0 / 10001.0
        # a perturbation sized 1e-6 pushes the gap below 1e-8 by n = 10^4
        assert gap(1e-6, 10000) <= 1e-8


class TestKernelArithmetic:
    def test_parallelogram_identity_of_relaxation_combine(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            alpha = float(rng.uniform(0.0, 1.0))
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            lhs = float(np.linalg.norm(_mann(alpha, x.copy(), y.copy(), np.empty(12))) ** 2)
            rhs = (alpha * float(x @ x) + (1 - alpha) * float(y @ y)
                   - alpha * (1 - alpha) * float((x - y) @ (x - y)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestOptimality:
    @pytest.mark.parametrize("builder", [build_lasso1d, build_denoise4])
    def test_converged_states_satisfy_first_order_conditions(self, builder):
        p = builder()
        gamma, lam = p.beta, p.lambda_hi
        u, tr = pdfp2o(p, gamma, lam, stop=TIGHT)
        assert tr.converged
        assert optimality_residual(p, gamma, lam, u) <= 1e-6


@pytest.mark.parametrize("tol,max_iter", [(np.nan, 10), (-1e-8, 10), (1e-8, -1)])
def test_stopping_rule_rejects_bad_values(tol, max_iter):
    with pytest.raises(ValueError):
        StoppingRule(tol=tol, max_iter=max_iter)


# the floats were once accepted, failing after the first operator calls with
# Python's "'float' object cannot be interpreted as an integer"; a string
# raised a TypeError
@pytest.mark.parametrize("max_iter", [2.5, 2.0, np.inf, np.nan, "3"])
def test_stopping_rule_names_a_max_iter_that_is_not_an_integer(max_iter):
    with pytest.raises(ValueError, match="max_iter=.* must be a nonnegative integer"):
        StoppingRule(0.0, max_iter)


def test_stopping_rule_takes_numpy_integers():
    assert StoppingRule(0.0, np.int64(3)).max_iter == 3


def test_driver_rejects_a_column_that_run_trace_lacks():
    step = lambda n: (np.zeros(2), np.zeros(2), 1.0, 1.0, dict(objectives=0.0, gama=1.0))
    with pytest.raises(TypeError, match=re.escape("no RunTrace column ['gama']")):
        _drive(step, StoppingRule(0.0, 3), 1.0, None)


class TestDivergence:
    """A NaN or inf in the data ends the run at its first step with reason
    "diverged" instead of running out the budget."""

    BUDGET = StoppingRule(tol=0.0, max_iter=500)

    @staticmethod
    def nan_problem(bad=np.nan):
        p = build_denoise4()
        b = p.f2.b.copy()
        b[5] = bad
        return make_problem(p.f1, quadratic_fn(identity_op(16), b), p.D)

    @pytest.mark.parametrize("solver", ["pdfp2o", "pfbs_fp2o", "chambolle_pock", "siu"])
    def test_nan_data_stops_as_diverged(self, solver):
        p = self.nan_problem()
        g, l = p.beta, p.lambda_hi
        run = {
            "pdfp2o": lambda: pdfp2o(p, g, l, stop=self.BUDGET),
            "pfbs_fp2o": lambda: pfbs_fp2o(p, g, l, 0.0, StoppingRule(1e-8, 20),
                                           stop=self.BUDGET),
            "chambolle_pock": lambda: chambolle_pock(p, 0.9 * l / g, g, 1.0, stop=self.BUDGET),
            "siu": lambda: siu(p, *siu_safe_steps(p), stop=self.BUDGET),
        }[solver]
        _, tr = run()
        assert tr.stop_reason == "diverged"
        assert not tr.converged
        assert tr.n_iter == 1 and len(tr.residuals) == 1
        assert np.isnan(tr.residuals[0])
        if solver == "pfbs_fp2o":
            self.assert_inner_budget_runs_out(p)

    def test_chambolle_pock_resolvent_stops_on_nan_data(self):
        # the conjugate gradient once ran its 1000-step budget on a NaN
        # residual: 1002 calls of A for the one diverged step, against 14 for
        # a finite step
        p, _ = make_deblur_problem(16, 2, 1.5, 0.01, 1, 0.02)
        calls = []
        A = dataclasses.replace(p.f2.A, forward=lambda x, fwd=p.f2.A.forward:
                                calls.append(1) or fwd(x))
        b = p.f2.b.copy()
        b[5] = np.nan
        q = make_problem(p.f1, quadratic_fn(A, b), p.D)
        calls.clear()
        _, tr = chambolle_pock(q, 0.99 * q.lambda_hi / q.beta, q.beta, 1.0, stop=self.BUDGET)
        assert tr.stop_reason == "diverged" and tr.n_iter == 1
        assert len(calls) <= 3

    def assert_inner_budget_runs_out(self, p):
        # the inner loop stops only on convergence: a non-finite change never
        # meets the stop test, so the one outer step runs all 20 inner steps
        for kappa in (0.0, 0.5):
            for warm in (True, False):
                _, tr = pfbs_fp2o(p, p.beta, p.lambda_hi, kappa, StoppingRule(1e-8, 20),
                                  stop=self.BUDGET, warm_start=warm)
                assert tr.stop_reason == "diverged"
                assert tr.inner_iters.tolist() == [20], (kappa, warm)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("solver", ["pdfp2o", "pfbs_fp2o"])
    def test_inf_data_stops_as_diverged(self, solver):
        # the l1 dual step clips the inf in D z to a finite bound; the
        # primal correction keeps it, so the step is still not finite
        p = self.nan_problem(np.inf)
        g, l = p.beta, p.lambda_hi
        if solver == "pdfp2o":
            _, tr = pdfp2o(p, g, l, stop=self.BUDGET)
        else:
            _, tr = pfbs_fp2o(p, g, l, 0.0, StoppingRule(1e-8, 20), stop=self.BUDGET)
            self.assert_inner_budget_runs_out(p)
        assert tr.stop_reason == "diverged" and tr.n_iter == 1
        assert not np.isfinite(tr.residuals[0])

    @pytest.mark.parametrize("hint_div,steps", [(1.5, 522), (4.0, 185)])
    def test_overflowing_run_given_x_true_stops_as_diverged(self, hint_div, steps):
        # A's norm hint is too small, so 1.99 beta lies past the convergent
        # range and the iterates overflow. Given x_true, the SNR once raised
        # "math domain error" from log10(||x_true|| / inf) before the
        # finiteness test could stop the run.
        M = np.random.default_rng(0).standard_normal((60, 256))
        x_true = pdfp.shepp_logan(16).ravel()
        A = pdfp.LinearOp(256, 60, lambda x: M @ x, lambda r: M.T @ r,
                          norm_sq_hint=np.linalg.norm(M, 2) ** 2 / hint_div)
        p = make_problem(l1_norm_fn(512, 0.01), quadratic_fn(A, M @ x_true),
                         pdfp.diff_op_2d(16, 16))
        stop = StoppingRule(0.0, 5000)
        _, blind = pdfp2o(p, 1.99 * p.beta, p.lambda_hi, stop=stop)
        _, tr = pdfp2o(p, 1.99 * p.beta, p.lambda_hi, stop=stop, x_true=x_true)
        for t in (blind, tr):
            assert (t.stop_reason, t.n_iter) == ("diverged", steps)
        assert (tr.relerrs[-1], tr.snrs[-1]) == (np.inf, -np.inf)
        assert np.isfinite(tr.snrs[:-1]).all()
        overflowed = np.full(256, 1e200)
        assert (pdfp.rel_err(overflowed, x_true), pdfp.snr(overflowed, x_true)) == (np.inf, -np.inf)

    def test_ifp2o_rejects_nan_data_in_its_solves(self):
        # every step solves with Q, and the Cholesky solve refuses NaN input
        p = self.nan_problem()
        with pytest.raises(ValueError, match="infs or NaNs"):
            ifp2o(np.eye(16), p.f2.b, p.f1, p.D, p.lambda_hi, 0.3, stop=self.BUDGET)

    def test_finite_runs_record_budget_or_convergence(self, denoise4):
        g, l = denoise4.beta, denoise4.lambda_hi
        _, tr = pdfp2o(denoise4, g, l, stop=StoppingRule(tol=0.0, max_iter=5))
        assert (tr.stop_reason, tr.converged, tr.n_iter) == ("budget", False, 5)
        _, tr = pdfp2o(denoise4, g, l, stop=StoppingRule(tol=1e-3, max_iter=500))
        assert tr.stop_reason == "converged" and tr.converged and tr.n_iter < 500


# Each script makes one run ``u, tr`` whose vectors are long enough for
# OpenBLAS to split a dot product across threads, then prints one hash of the
# final state and every trace column but wall_ms (a column a solver does not
# keep is None).
_HASH_RUN = """
h = hashlib.sha256(u.v.tobytes() + u.x.tobytes())
for f in dataclasses.fields(tr):
    value = getattr(tr, f.name)
    if f.name not in ("wall_ms", "iterates") and value is not None:
        h.update(f.name.encode() + np.asarray(value).tobytes())
print(h.hexdigest())
"""

# pfbs_fp2o's dual vector has 32,768 entries
_THREADS_SCRIPT = """
import dataclasses, hashlib
import numpy as np
from pdfp import StoppingRule, make_denoise_problem, pfbs_fp2o
p, x_true = make_denoise_problem(128, 0.1, 1, 0.05, "isotropic-pair")
u, tr = pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, 0.0, StoppingRule(1e-4, 50),
                  stop=StoppingRule(0.0, 60), x_true=x_true.ravel())
""" + _HASH_RUN

# chambolle_pock on a deblur problem solves its primal resolvent by conjugate
# gradient over 16,384 entries
_CP_THREADS_SCRIPT = """
import dataclasses, hashlib
import numpy as np
from pdfp import StoppingRule, chambolle_pock, make_deblur_problem
p, x_true = make_deblur_problem(128, 2, 1.5, 0.01, 1, 0.02)
u, tr = chambolle_pock(p, 0.99 * p.lambda_hi / p.beta, p.beta, 1.0,
                       stop=StoppingRule(0.0, 10), x_true=x_true.ravel())
""" + _HASH_RUN


def hashes_at_one_and_two_blas_threads(script):
    src = str(Path(pdfp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True,
                           env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=n)
                           ).stdout.strip() for n in ("1", "2")]


def test_same_bits_at_one_and_two_blas_threads():
    hashes = hashes_at_one_and_two_blas_threads(_THREADS_SCRIPT)
    assert hashes[0] == hashes[1] != ""


def test_chambolle_pock_resolvent_same_bits_at_one_and_two_blas_threads():
    hashes = hashes_at_one_and_two_blas_threads(_CP_THREADS_SCRIPT)
    assert hashes[0] == hashes[1] != ""


def tiny_problem():
    return make_problem(l1_norm_fn(2), quadratic_fn(identity_op(2), np.ones(2)), identity_op(2))


def flat_f2(dim, lipschitz=0.0):
    return pdfp.SmoothFn(dim=dim, value=lambda x: 0.0, grad=np.zeros_like, lipschitz=lipschitz)


# Calls refused with a ValueError, and the words that name what is wrong.
NAMED_ERRORS = {
    "f1-dim": (lambda: make_problem(l1_norm_fn(3), tiny_problem().f2, identity_op(2)),
               "f1 acts on R^3 but D maps into R^2"),
    "f2-dim": (lambda: make_problem(l1_norm_fn(2), quadratic_fn(identity_op(3), np.ones(3)),
                                    identity_op(2)), "f2 acts on R^3 but D maps from R^2"),
    "f2-lipschitz": (lambda: make_problem(l1_norm_fn(2), flat_f2(2), identity_op(2)),
                     "f2 must have a positive Lipschitz constant"),
    # beta would be NaN or 0, and every gamma out of range (0, nan) or (0, 0.0)
    **{f"f2-lipschitz-{value}": (lambda value=value: make_problem(
        l1_norm_fn(2), flat_f2(2, float(value)), identity_op(2)),
        f"f2 must have a positive Lipschitz constant that is finite, not {value}")
       for value in ("nan", "inf")},
    # lambda_hi would be NaN, negative or 0, and every lam out of range (0, nan] or (0, -1.0]
    **{f"D-bound-{value}": (lambda value=value: make_problem(
        l1_norm_fn(2), tiny_problem().f2,
        dataclasses.replace(identity_op(2), norm_sq_hint=float(value))),
        f"D's spectral bound lambda_max(D D^T) must be nonnegative and finite, not {value}")
       for value in ("nan", "-1.0", "inf")},
    "ifp2o-shape": (lambda: ifp2o(np.eye(2), np.ones(3), l1_norm_fn(2), identity_op(2), 1.0, 0.5),
                    "Q must be square and b must match its size"),
    "ifp2o-symmetry": (lambda: ifp2o(np.array([[2.0, 1.0], [0.0, 2.0]]), np.ones(2),
                                     l1_norm_fn(2), identity_op(2), 1.0, 0.5),
                       "Q must be symmetric"),
    # D Q^{-1} D^T = I admits lam up to 2 / lambda_max = 2
    "ifp2o-lam": (lambda: ifp2o(np.eye(2), np.ones(2), l1_norm_fn(2), identity_op(2), 3.0, 0.5),
                  "lam=3.0 out of range (0, "),
    "cp-theta": (lambda: chambolle_pock(tiny_problem(), 0.5, 0.5, 1.5),
                 "theta must lie in [0, 1]"),
    # kappa by its own name, not as the schedule's alpha
    "pdfp2o_kappa-kappa": (lambda: pdfp2o_kappa(tiny_problem(), 1.0, 1.0, 1.2),
                           "kappa=1.2 out of range [0, 1)"),
    "pfbs_fp2o-kappa": (lambda: pfbs_fp2o(tiny_problem(), 1.0, 1.0, 1.2, StoppingRule(1e-3, 5)),
                        "kappa=1.2 out of range [0, 1)"),
}


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_named_errors(case):
    call, named = NAMED_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(named)):
        call()
