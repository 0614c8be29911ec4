import csv
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import pdfp.diagnostics
from pdfp import (
    CertificateNotApplicable,
    InvariantViolationError,
    PDState,
    RunTrace,
    StoppingRule,
    apply_T,
    constant_schedule,
    diff_op_2d,
    fejer_check,
    fixed_point_residual,
    identity_op,
    l1_norm_fn,
    lambda_norm,
    m_seminorm,
    make_denoise_problem,
    make_problem,
    matrix_op,
    pdfp2o,
    pdfp2o_dsn,
    quadratic_fn,
    rate_certificate,
    rel_err,
    snr,
    write_trace_csv,
    zero_prox_fn,
    SparseMatrix,
)
from pdfp.diagnostics import TRACE_CSV_HEADER, atomic_write, rel_err_snr
from pdfp.linops import norm
from conftest import TIGHT_STOP
from test_linops import dense_of


class TestLambdaNorm:
    def test_zero_dual_reduces_to_euclidean(self):
        u = PDState(np.zeros(3), np.array([3.0, 4.0, 0.0]))
        assert lambda_norm(u, 2.0) == pytest.approx(5.0)

    def test_direct_formula(self):
        u = PDState(np.array([1.0]), np.array([0.0, 1.0]))
        assert lambda_norm(u, 4.0) == pytest.approx(math.sqrt(5.0))

    def test_norm_axioms_on_random_states(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lam = float(rng.uniform(0.1, 5.0))
            u = PDState(rng.standard_normal(4), rng.standard_normal(3))
            w = PDState(rng.standard_normal(4), rng.standard_normal(3))
            c = float(rng.standard_normal())
            assert lambda_norm(u, lam) >= 0.0
            scaled = PDState(c * u.v, c * u.x)
            assert lambda_norm(scaled, lam) == pytest.approx(abs(c) * lambda_norm(u, lam))
            s = PDState(u.v + w.v, u.x + w.x)
            assert lambda_norm(s, lam) <= lambda_norm(u, lam) + lambda_norm(w, lam) + 1e-12

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            lambda_norm(PDState(np.zeros(1), np.zeros(1)), 0.0)


class TestMSeminorm:
    def test_tiny_weight_approaches_euclidean(self):
        D = diff_op_2d(3, 3)
        v = np.arange(18, dtype=float)
        assert m_seminorm(v, D, 1e-12) == pytest.approx(np.linalg.norm(v), rel=1e-6)

    def test_identity_at_unit_weight_vanishes(self):
        rng = np.random.default_rng(1)
        D = identity_op(5)
        for _ in range(20):
            assert m_seminorm(rng.standard_normal(5), D, 1.0) == 0.0

    def test_nonnegative_at_admissible_weights(self):
        rng = np.random.default_rng(2)
        D = diff_op_2d(4, 4)
        lam = 1.0 / D.norm_sq_hint
        for _ in range(50):
            assert m_seminorm(rng.standard_normal(32), D, lam) >= 0.0

    def test_dominated_by_euclidean_norm(self):
        rng = np.random.default_rng(3)
        D = diff_op_2d(3, 4)
        lam = 1.0 / D.norm_sq_hint
        for _ in range(50):
            v = rng.standard_normal(24)
            assert m_seminorm(v, D, lam) <= np.linalg.norm(v) + 1e-12

    def test_admissible_weight_on_a_long_top_eigenvector_does_not_raise(self):
        # <v, (I - lam D D^T) v> is 0 here up to rounding that scales with
        # ||v||^2 = 1e8: an absolute slack of 1e-12 raised on -1.49e-08
        D = diff_op_2d(16, 16)
        lam = 1.0 / D.norm_sq_hint
        M = dense_of(D)
        v = 1e4 * np.linalg.eigh(M @ M.T)[1][:, -1]
        assert 0.0 <= m_seminorm(v, D, lam) <= 1e-3

    def test_oversized_weight_raises(self):
        M = SparseMatrix(1, 1, ([0], [0], [2.0]))
        with pytest.raises(InvariantViolationError):
            m_seminorm(np.array([1.0]), matrix_op(M), 1.0)


class TestSnrRelErr:
    def test_zero_estimate_gives_zero_db(self):
        x_true = np.array([1.0, 2.0])
        assert snr(np.zeros(2), x_true) == pytest.approx(0.0)

    def test_ten_percent_error_gives_twenty_db(self):
        x_true = np.array([3.0, -1.0, 2.0])
        assert snr(1.1 * x_true, x_true) == pytest.approx(20.0)

    def test_exact_match_returns_infinity(self):
        x = np.array([1.0, 2.0])
        assert snr(x.copy(), x) == math.inf

    def test_rel_err_values(self):
        x_true = np.array([1.0, -2.0])
        assert rel_err(x_true, x_true) == 0.0
        assert rel_err(2.0 * x_true, x_true) == pytest.approx(1.0)
        assert rel_err(1.1 * x_true, x_true) == pytest.approx(0.01)

    def test_rel_err_rejects_zero_truth(self):
        with pytest.raises(ValueError):
            rel_err(np.ones(2), np.zeros(2))

    def test_one_pass_pair_matches_two_pass_formulas(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x_true = rng.standard_normal(7)
            x = x_true + rng.standard_normal(7) * 10.0 ** rng.uniform(-9, 1)
            nt, nd = norm(x_true), norm(x - x_true)
            rel, snr_db = rel_err_snr(x, x_true)
            assert rel == (nd * nd) / (nt * nt) and rel == rel_err(x, x_true)
            assert snr_db == 20.0 * math.log10(nt / nd) and snr_db == snr(x, x_true)
        assert rel_err_snr(x_true, x_true.copy()) == (0.0, math.inf)

    @pytest.mark.parametrize("x", [np.zeros(2), np.ones(2)])
    def test_zero_truth_rejected_by_pair_and_solver(self, x, denoise4):
        with pytest.raises(ValueError, match="x_true must be nonzero"):
            rel_err_snr(x, np.zeros(2))
        with pytest.raises(ValueError, match="x_true must be nonzero"):
            pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi,
                   stop=StoppingRule(tol=0.0, max_iter=2), x_true=np.zeros(16))

    def test_snr_relerr_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x_true = rng.standard_normal(6)
            x = x_true + rng.standard_normal(6) * 0.3
            s = snr(x, x_true)
            r = rel_err(x, x_true)
            assert r == pytest.approx(10.0 ** (-s / 10.0), rel=1e-10)


class TestFixedPointResidual:
    def test_vanishes_at_converged_state(self, denoise4):
        u, _ = pdfp2o(denoise4, denoise4.beta, denoise4.lambda_hi, stop=TIGHT_STOP)
        assert fixed_point_residual(denoise4, denoise4.beta, denoise4.lambda_hi, u) <= 1e-8

    def test_zero_analysis_operator_reduces_to_gradient_norm(self):
        Z = matrix_op(SparseMatrix(2, 2, (np.zeros(0, int), np.zeros(0, int), np.zeros(0))))
        f2 = quadratic_fn(identity_op(2), np.array([1.0, -1.0]))
        p = make_problem(zero_prox_fn(2), f2, Z)
        x = np.array([3.0, 2.0])
        gamma = 0.7
        res = fixed_point_residual(p, gamma, 1.0, PDState(np.zeros(2), x))
        assert res == pytest.approx(gamma * np.linalg.norm(p.f2.grad(x)))

    def test_decreasing_trend_along_run(self, lasso1d):
        _, tr = pdfp2o(lasso1d, 0.5, 1.0, u0=PDState(np.array([0.7]), np.array([-2.0])),
                       stop=StoppingRule(tol=0.0, max_iter=120))
        assert tr.residuals[100] < tr.residuals[1]


class TestFejerCheck:
    def test_convergent_run_is_fejer_monotone(self, lasso1d):
        sched = constant_schedule(1.0, 1.0, alpha=0.3, problem=lasso1d)
        u_hat, _ = pdfp2o_dsn(lasso1d, sched, stop=TIGHT_STOP)
        _, tr = pdfp2o_dsn(lasso1d, sched, stop=StoppingRule(tol=0.0, max_iter=300),
                           record_iterates=True)
        assert fejer_check(tr, u_hat, 1.0)

    def test_divergent_iteration_fails_check(self, lasso1d):
        # iterate the raw update far outside the admissible stepsize range
        from pdfp.solvers import _tentative

        p = lasso1d
        gamma = 10.0 / p.f2.lipschitz
        v = np.array([0.3])
        x = np.array([5.0])
        iterates = [PDState(v.copy(), x.copy())]
        for _ in range(25):
            v, x, _, _ = _tentative(p, gamma, 1.0, v, x, p.f2.grad(x), p.D.adjoint(v))
            iterates.append(PDState(v.copy(), x.copy()))
        trace = _trace_with_iterates(iterates)
        u_hat = PDState(np.array([0.1]), np.array([0.9]))
        assert not fejer_check(trace, u_hat, 1.0)

    def test_trivial_trace_passes_vacuously(self, lasso1d):
        trace = _trace_with_iterates([lasso1d.zeros()])
        assert fejer_check(trace, PDState(np.array([0.0]), np.array([1.0])), 1.0)

    def test_missing_iterates_rejected(self, lasso1d):
        _, tr = pdfp2o(lasso1d, 1.0, 1.0, stop=StoppingRule(tol=0.0, max_iter=5))
        with pytest.raises(ValueError):
            fejer_check(tr, lasso1d.zeros(), 1.0)


def _trace_with_iterates(iterates):
    k = len(iterates) - 1
    z = np.zeros(k)
    return RunTrace(
        lambda_ref=1.0, converged=False, n_iter=k,
        iters=np.arange(1, k + 1), gammas=z, lams=z, alphas=z, objectives=z,
        residuals=z, dist_ref=z, snrs=z, relerrs=z, wall_ms=z, iterates=iterates,
    )


def synthetic_certifiable_problem(scale=1.001):
    # nearly spherical quadratic: strong convexity 1, curvature ratio ~1
    M = SparseMatrix(2, 2, ([0, 1], [0, 1], [1.0, scale]))
    f2 = quadratic_fn(matrix_op(M), np.array([1.0, -2.0]))
    return make_problem(l1_norm_fn(2, weight=0.05), f2, identity_op(2))


class TestRateCertificate:
    def test_identity_analysis_and_matched_curvature(self):
        # D = I at unit weight kills mu; gamma = beta with sigma = 1/beta
        # kills nu, leaving theta at the relaxation floor
        M = SparseMatrix(2, 2, ([0, 1], [0, 1], [2.0, 2.0]))  # f2 = 0.5||2x - b||^2
        f2 = quadratic_fn(matrix_op(M), np.ones(2))
        p = make_problem(l1_norm_fn(2, weight=0.1), f2, identity_op(2))
        sigma = 4.0  # lambda_min(A^T A)
        cert = rate_certificate(p, p.beta, 1.0, 0.1, 0.9, sigma)
        assert cert.mu == pytest.approx(0.0, abs=1e-6)
        # nu vanishes up to the safety margin on the estimated curvature
        assert cert.nu == pytest.approx(0.0, abs=2e-3)
        assert cert.theta == pytest.approx(0.9, abs=2e-3)

    def test_mu_formula_at_upper_dual_stepsize(self):
        # full-row-rank rectangular operator: mu^2 = 1 - lam_min/lam_max
        rng = np.random.default_rng(5)
        svals = [1.0, 0.9, 0.8]
        D = matrix_op(SparseMatrix(3, 5, (np.arange(3), np.arange(3), np.array(svals))))
        f2 = quadratic_fn(identity_op(5), rng.standard_normal(5))
        p = make_problem(l1_norm_fn(3, weight=0.1), f2, D)
        eigs = np.array([s * s for s in reversed(svals)])
        lam = 1.0 / eigs[-1]
        cert = rate_certificate(p, p.beta, lam, 0.01, 0.05, sigma=1.0)
        assert cert.mu ** 2 == pytest.approx(1.0 - eigs[0] / eigs[-1], rel=1e-6)

    def test_bound_dominates_observed_error(self):
        p = synthetic_certifiable_problem()
        gamma, lam = p.beta, 1.0
        cert = rate_certificate(p, gamma, lam, 0.1, 0.9, sigma=1.0, alpha0=0.5)
        assert cert is not None and cert.theta < 1.0
        sched = constant_schedule(gamma, lam, alpha=0.5, problem=p)
        u_bar, _ = pdfp2o_dsn(p, sched, stop=TIGHT_STOP)
        _, tr = pdfp2o_dsn(p, sched, stop=StoppingRule(tol=0.0, max_iter=200),
                           record_iterates=True)
        for n, u in enumerate(tr.iterates):
            assert np.linalg.norm(u.x - u_bar.x) <= cert.bound(n) + 1e-12

    def test_contraction_factor_observed_empirically(self):
        p = synthetic_certifiable_problem(scale=1.2)
        gamma, lam = p.beta, 1.0
        cert = rate_certificate(p, gamma, lam, 0.1, 0.2, sigma=1.0)
        rng = np.random.default_rng(6)
        for _ in range(300):
            u1 = PDState(rng.standard_normal(2), rng.standard_normal(2))
            u2 = PDState(rng.standard_normal(2), rng.standard_normal(2))
            T1 = apply_T(p, gamma, lam, u1)
            T2 = apply_T(p, gamma, lam, u2)
            lhs = lambda_norm(PDState(T1.v - T2.v, T1.x - T2.x), lam)
            rhs = lambda_norm(PDState(u1.v - u2.v, u1.x - u2.x), lam)
            assert lhs <= cert.eta * rhs + 1e-9

    def test_rank_deficient_operator_not_applicable(self):
        M = SparseMatrix(2, 2, ([0], [0], [1.0]))  # singular D D^T
        f2 = quadratic_fn(identity_op(2), np.ones(2))
        p = make_problem(l1_norm_fn(2, weight=0.1), f2, matrix_op(M))
        with pytest.raises(CertificateNotApplicable, match=r"contraction factors reach 1: mu=1\.0"):
            rate_certificate(p, p.beta, 0.5, 0.1, 0.9, sigma=1.0)

    def test_wide_relaxation_clamp_not_applicable(self):
        # eta too large for the loose relaxation clamp: theta reaches 1
        p = synthetic_certifiable_problem(scale=3.0)
        with pytest.raises(CertificateNotApplicable, match=r"theta = .* reaches 1, eta="):
            rate_certificate(p, 0.3 * p.beta, 1.0, 0.1, 0.9, sigma=1.0)

    def test_rejects_bad_sigma(self):
        p = synthetic_certifiable_problem()
        with pytest.raises(ValueError):
            rate_certificate(p, p.beta, 1.0, 0.1, 0.9, sigma=0.0)

    @pytest.mark.parametrize("alpha0", [math.nan, -0.3, 1.0, 1.5])
    def test_first_step_weight_outside_unit_interval_rejected(self, alpha0):
        # NaN once gave d=nan, and -0.3 or 1.5 a d for a step no solver takes
        p = synthetic_certifiable_problem()
        with pytest.raises(ValueError, match="alpha="):
            rate_certificate(p, p.beta, 1.0, 0.1, 0.9, sigma=1.0, alpha0=alpha0)

    @pytest.mark.parametrize("side", [16, 64])
    def test_gamma_checked_before_size_limit_and_gram(self, side, monkeypatch):
        # the dual dimension 2 side^2 is 512 (under the dense limit) or 8192 (over it)
        p, _ = make_denoise_problem(side, 0.05, 1, 0.1)

        def no_gram(D):
            raise AssertionError("D D^T was assembled for an invalid gamma")

        monkeypatch.setattr(pdfp.diagnostics, "_dense_gram", no_gram)
        with pytest.raises(ValueError, match="gamma="):
            rate_certificate(p, 10.0 * p.beta, p.lambda_hi, 0.1, 0.9, sigma=1.0)

    @pytest.mark.parametrize("side", [16, 64])
    @pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_lam_rejected_before_size_limit_and_gram(self, side, lam, monkeypatch):
        p, _ = make_denoise_problem(side, 0.05, 1, 0.1)

        def no_gram(D):
            raise AssertionError("D D^T was assembled for an invalid lam")

        monkeypatch.setattr(pdfp.diagnostics, "_dense_gram", no_gram)
        with pytest.raises(ValueError, match="lam="):
            rate_certificate(p, p.beta, lam, 0.1, 0.9, sigma=1.0)


class TestTraceCsv:
    CELL = re.compile(r"^-?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|inf|nan)$")

    def test_round_trip_and_grammar(self, tmp_path, lasso1d):
        _, tr = pdfp2o(lasso1d, 1.0, 1.0, stop=StoppingRule(tol=0.0, max_iter=20),
                       x_true=np.array([0.9]))
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == "iter,gamma,lambda,alpha,objective,residual,snr,relerr,wall_ms".split(",")
        assert len(rows) == 21
        for row in rows[1:]:
            assert len(row) == 9
            for cell in row:
                assert self.CELL.match(cell), cell
        objectives = np.array([float(r[4]) for r in rows[1:]])
        np.testing.assert_array_equal(objectives, tr.objectives)

    def test_missing_metrics_serialize_as_nan(self, tmp_path, lasso1d):
        _, tr = pdfp2o(lasso1d, 1.0, 1.0, stop=StoppingRule(tol=0.0, max_iter=3))
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        body = path.read_text().splitlines()[1]
        assert ",nan,nan," in body

    def test_readme_header_is_the_one_written(self, tmp_path, lasso1d):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        formats = readme.split("\n## File formats\n", 1)[1]
        documented = re.search(r"\* `trace\.csv`: header `([^`]*)`", formats).group(1)
        _, tr = pdfp2o(lasso1d, 1.0, 1.0, stop=StoppingRule(tol=0.0, max_iter=2))
        write_trace_csv(tr, tmp_path / "trace.csv")
        written = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert documented == TRACE_CSV_HEADER == written


class TestAtomicWrite:
    def test_writer_raising_mid_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError, match="disk full"):
            with atomic_write(path) as fh:
                fh.write(b"half of the new")
                fh.flush()
                raise RuntimeError("disk full")
        assert path.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_replaces_whole_file_and_leaves_nothing_else(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"a much longer previous content\n")
        with atomic_write(path) as fh:
            fh.write(b"new\n")
        assert path.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_syncs_the_whole_temporary_file_before_the_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", st.st_ino, st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        with atomic_write(tmp_path / "out.txt") as fh:
            fh.write(b"new\n")
        (synced, ino, size), (moved, moved_ino, dst) = events
        assert (synced, moved) == ("fsync", "replace")
        # the file synced holds all the data and is the one renamed
        assert (size, moved_ino, dst) == (4, ino, "out.txt")


# Calls refused with a ValueError, and the words that name what is wrong.
NAMED_ERRORS = {
    "m-seminorm-lam": (lambda: m_seminorm(np.ones(2), identity_op(2), 0.0), "lam must be positive"),
    # NaN passes a "<= 0" check, and would give a NaN norm
    "m-seminorm-lam-nan": (lambda: m_seminorm(np.ones(2), identity_op(2), np.nan),
                           "lam must be positive"),
    "lambda-norm-lam-nan": (lambda: lambda_norm(PDState(np.ones(2), np.ones(2)), np.nan),
                            "lam must be positive"),
    "rel-err-snr-shape": (lambda: rel_err_snr(np.ones(3), np.ones(4)),
                          "images must have the same shape"),
    # D = I: lambda_max(D D^T) = 1 admits lam up to 1 + 1e-9
    "certificate-lam-above-dense-bound": (
        lambda: rate_certificate(synthetic_certifiable_problem(), 0.5, 2.0, 0.1, 0.9, 1.0),
        "lam=2.0 out of range (0, "),
    # a first step outside the relaxation range once got the range's bound, which
    # its run breaks (on the lasso problem, alpha0 = 0.95 was certified at theta = 0.9)
    **{f"certificate-first-step-{a0}": (
        lambda a0=a0: rate_certificate(synthetic_certifiable_problem(), 0.99, 1.0, 0.1, 0.9, 1.0,
                                       alpha0=a0),
        f"relaxation range [0.1, 0.9] must hold alpha0={a0}") for a0 in (0.05, 0.95)},
    "certificate-range-order": (
        lambda: rate_certificate(synthetic_certifiable_problem(), 0.99, 1.0, 0.7, 0.3, 1.0),
        "relaxation range [0.7, 0.3] must hold alpha0=0.7"),
    "certificate-range-end": (
        lambda: rate_certificate(synthetic_certifiable_problem(), 0.99, 1.0, 0.1, 1.0, 1.0,
                                 alpha0=0.5),
        "relaxation range [0.1, 1.0] must hold alpha0=0.5 and lie in [0, 1)"),
}


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_named_errors(case):
    call, named = NAMED_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(named)):
        call()
