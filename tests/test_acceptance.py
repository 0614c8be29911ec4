"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (plus timing) for its criterion, so a
``pytest -s tests/test_acceptance.py`` run doubles as the acceptance report.
The CT reconstruction criterion runs the full 256x256 experiment and takes
a couple of minutes; everything else is desk-speed.
"""

import time

import numpy as np
import pytest

from pdfp import (
    PDState,
    StoppingRule,
    apply_T,
    bb_dynamic_schedule,
    chambolle_pock,
    conjugate_prox,
    constant_schedule,
    ds_split_x_update,
    fejer_check,
    group_l2_norm_fn,
    identity_op,
    l1_norm_fn,
    lambda_norm,
    make_problem,
    make_tomo_problem,
    make_tv_problem,
    matrix_op,
    paper_ct_geometry,
    pdfp2o,
    pdfp2o_ds,
    pdfp2o_dsn,
    pdfp2o_kappa,
    pfbs_fp2o,
    quadratic_fn,
    rate_certificate,
    resolvent_identity_check,
    saddle_step,
    siu,
    siu_x_update,
    zero_prox_fn,
    SparseMatrix,
)
from conftest import build_deblur8, build_denoise4, build_lasso1d, run_differences

TIGHT = StoppingRule(tol=1e-12, max_iter=200000)
CT_SEED = 7
CT_BUDGET = 2000


def report(num, name, ok, started, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({extra})" if extra else ""
    print(f"[acceptance {num}] {name}: {status} in {time.perf_counter() - started:.2f}s{tail}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_special_case_collapses():
    t0 = time.perf_counter()
    p = build_denoise4()
    stop = StoppingRule(tol=0.0, max_iter=200)
    gamma, lam = p.beta, p.lambda_hi
    plain = pdfp2o(p, gamma, lam, stop=stop)
    collapses = {
        "pdfp2o_ds": pdfp2o_ds(p, constant_schedule(gamma, lam, problem=p), stop=stop),
        "pdfp2o_dsn": pdfp2o_dsn(p, constant_schedule(gamma, lam, alpha=0.0, problem=p),
                                 stop=stop),
        "pdfp2o_kappa": pdfp2o_kappa(p, gamma, lam, 0.0, stop=stop),
    }
    differ = {name: d for name, run in collapses.items() if (d := run_differences(run, plain))}
    report(1, "special-case collapses are bit-identical over 200 iterations", not differ, t0,
           f"differ from pdfp2o: {differ}" if differ else "")


def _run_all_solvers(p):
    gamma, lam = p.beta, p.lambda_hi
    stop = StoppingRule(tol=1e-10, max_iter=300000)
    objectives = {}
    u, _ = pdfp2o(p, gamma, lam, stop=stop)
    objectives["pdfp2o"] = p.objective(u.x)
    u, _ = pdfp2o_ds(p, bb_dynamic_schedule(p, lambda0=lam), stop=stop)
    objectives["pdfp2o_ds"] = p.objective(u.x)
    sched = constant_schedule(gamma, lam, alpha=0.5, problem=p)
    u, _ = pdfp2o_dsn(p, sched, stop=stop)
    objectives["pdfp2o_dsn"] = p.objective(u.x)
    u, _ = chambolle_pock(p, 0.9 * lam / gamma, gamma, 1.0, stop=stop)
    objectives["chambolle_pock"] = p.objective(u.x)
    nu = 1.0
    delta = 0.9 / (p.f2.lipschitz + nu * p.lambda_max_ddt)
    state, _ = siu(p, delta, nu, stop=stop)
    objectives["siu"] = p.objective(state.x)
    inner = StoppingRule(tol=1e-11, max_iter=400)
    u, _ = pfbs_fp2o(p, gamma, lam, 0.0, inner, stop=stop)
    objectives["pfbs_fp2o"] = p.objective(u.x)
    return objectives


def test_02_cross_solver_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for name, builder in (("lasso-1d", build_lasso1d), ("denoise-4x4", build_denoise4),
                          ("deblur-8x8", build_deblur8)):
        objs = _run_all_solvers(builder())
        values = np.array(list(objs.values()))
        spread = (values.max() - values.min()) / abs(values.min())
        worst = max(worst, spread)
        ok = ok and spread <= 1e-5
    report(2, "six solvers agree on three fixtures to 1e-5 relative", ok, t0,
           extra=f"worst relative spread {worst:.2e}")


def test_03_saddle_form_equivalence():
    t0 = time.perf_counter()
    p = build_denoise4()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 1.9)) * p.beta
        lam = float(rng.uniform(0.1, 1.0)) * p.lambda_hi
        v = rng.standard_normal(p.D.out_dim)
        x = rng.standard_normal(p.D.in_dim)
        u1 = apply_T(p, gamma, lam, PDState(v, x))
        y0 = x - gamma * p.f2.grad(x) - lam * p.D.adjoint(v)
        vbar1, x1, _ = saddle_step(p, gamma, lam, (lam / gamma) * v, x, y0)
        worst = max(
            worst,
            float(np.linalg.norm(vbar1 - (lam / gamma) * u1.v)),
            float(np.linalg.norm(x1 - u1.x)),
        )
    ok = worst <= 1e-12
    report(3, "conjugate-prox (saddle) form matches one dynamic iteration", ok, t0,
           extra=f"worst residual {worst:.2e}")


def test_04_split_form_identity_and_tracking():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for p in (build_denoise4(), build_deblur8()):
        A = p.f2.A
        for _ in range(50):
            x = rng.standard_normal(p.D.in_dim)
            d = rng.standard_normal(p.D.out_dim)
            v = rng.standard_normal(p.D.out_dim)
            delta = float(rng.uniform(0.1, 1.9)) * p.beta
            nu = float(rng.uniform(0.1, 1.0)) * p.lambda_hi / delta
            gap = ds_split_x_update(p.f2, p.D, delta, nu, x, d, v) - siu_x_update(
                p.f2, p.D, delta, nu, x, d, v
            )
            coupling = -delta * delta * nu * A.adjoint(
                A.forward(p.D.adjoint(d - p.D.forward(x)))
            )
            worst = max(worst, float(np.linalg.norm(gap - coupling)))
    identity_ok = worst <= 1e-12
    p = build_denoise4()
    nu = 1.0
    delta = 0.9 / (p.f2.lipschitz + nu * p.lambda_max_ddt)
    state, tr = siu(p, delta, nu, stop=StoppingRule(tol=1e-12, max_iter=100000))
    track = float(np.linalg.norm(state.d - p.D.forward(state.x)))
    tracking_ok = tr.converged and track <= 1e-6
    report(4, "split-form updates differ by the stated coupling term",
           identity_ok and tracking_ok, t0,
           extra=f"identity {worst:.2e}, split gap {track:.2e}")


def test_05_operator_theory_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    ok = True
    proxes = [
        l1_norm_fn(6, weight=0.8),
        group_l2_norm_fn(6, [(0, 1, 2), (3, 4), (5,)], weight=1.2),
        zero_prox_fn(6),
    ]
    # firm nonexpansiveness of each prox and its complement, plus the
    # norm-splitting inequality, on 1000 random pairs each
    for f in proxes:
        for _ in range(1000):
            t = float(rng.uniform(0.2, 3.0))
            z1 = rng.standard_normal(6) * 2
            z2 = rng.standard_normal(6) * 2
            p1, p2 = f.prox(t, z1), f.prox(t, z2)
            for a1, a2 in ((p1, p2), (z1 - p1, z2 - p2)):
                diff = a1 - a2
                sq = float(diff @ diff)
                ok = ok and sq <= float(diff @ (z1 - z2)) + 1e-9
                resid = (z1 - a1) - (z2 - a2)
                ok = ok and sq <= float((z1 - z2) @ (z1 - z2)) - float(resid @ resid) + 1e-9
    # resolvent identity and Moreau decomposition at mixed scales
    for f in proxes[:2]:
        for _ in range(1000):
            z = rng.standard_normal(6) * 3
            nu_s = float(rng.uniform(0.2, 4.0))
            mu_s = float(rng.uniform(0.2, 4.0))
            ok = ok and resolvent_identity_check(f, nu_s, mu_s, z) <= 1e-12
            t = float(rng.uniform(0.3, 3.0))
            v_plus = f.prox(t, z)
            v_minus = t * conjugate_prox(f, 1.0 / t, z / t)
            ok = ok and float(np.linalg.norm(z - (v_plus + v_minus))) <= 1e-12
    # cocoercivity of a quadratic gradient
    dense = rng.standard_normal((5, 4))
    i, j = np.nonzero(dense)
    f2 = quadratic_fn(matrix_op(SparseMatrix(5, 4, (i, j, dense[i, j]))),
                      rng.standard_normal(5))
    beta = 1.0 / f2.lipschitz
    for _ in range(1000):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        dg = f2.grad(x) - f2.grad(y)
        ok = ok and float(dg @ (x - y)) >= beta * float(dg @ dg) - 1e-9
    # nonexpansiveness of the fixed-point operator in the weighted norm
    p = build_denoise4()
    for _ in range(5):
        gamma = float(rng.uniform(0.05, 1.95)) * p.beta
        lam = float(rng.uniform(0.1, 1.0)) * p.lambda_hi
        for _ in range(200):
            u1 = PDState(rng.standard_normal(32), rng.standard_normal(16))
            u2 = PDState(rng.standard_normal(32), rng.standard_normal(16))
            T1, T2 = apply_T(p, gamma, lam, u1), apply_T(p, gamma, lam, u2)
            lhs = lambda_norm(PDState(T1.v - T2.v, T1.x - T2.x), lam)
            rhs = lambda_norm(PDState(u1.v - u2.v, u1.x - u2.x), lam)
            ok = ok and lhs <= rhs + 1e-9
    report(5, "operator-theory property suite (1000 trials per identity)", ok, t0)


def test_06_fejer_monotonicity_and_residual_decay():
    t0 = time.perf_counter()
    ok = True
    for builder in (build_lasso1d, build_denoise4, build_deblur8):
        p = builder()
        gamma, lam = p.beta, p.lambda_hi
        u_hat, _ = pdfp2o(p, gamma, lam, stop=TIGHT)
        _, tr = pdfp2o(p, gamma, lam, stop=StoppingRule(tol=0.0, max_iter=120),
                       record_iterates=True)
        ok = ok and fejer_check(tr, u_hat, lam)
        ok = ok and tr.residuals[99] < tr.residuals[0]
        sched = constant_schedule(gamma, lam, alpha=0.5, problem=p)
        u_hat_m, _ = pdfp2o_dsn(p, sched, stop=TIGHT)
        _, tr_m = pdfp2o_dsn(p, sched, stop=StoppingRule(tol=0.0, max_iter=120),
                             record_iterates=True)
        ok = ok and fejer_check(tr_m, u_hat_m, lam)
        ok = ok and tr_m.residuals[99] < tr_m.residuals[0]
    report(6, "Fejer monotone distances and decaying fixed-point residuals", ok, t0)


def test_07_rate_certificate_dominates_error():
    t0 = time.perf_counter()
    # nearly spherical strongly convex data term, identity analysis operator
    n = 6
    scale = np.linspace(1.0, 1.001, n)
    M = SparseMatrix(n, n, (np.arange(n), np.arange(n), scale))
    rng = np.random.default_rng(14)
    f2 = quadratic_fn(matrix_op(M), rng.standard_normal(n))
    p = make_problem(l1_norm_fn(n, weight=0.05), f2, identity_op(n))
    gamma, lam, sigma = p.beta, 1.0, 1.0
    cert = rate_certificate(p, gamma, lam, 0.1, 0.9, sigma, alpha0=0.5)
    ok = 0.0 < cert.theta < 1.0
    if ok:
        sched = constant_schedule(gamma, lam, alpha=0.5, problem=p)
        u_bar, _ = pdfp2o_dsn(p, sched, stop=TIGHT)
        _, tr = pdfp2o_dsn(p, sched, stop=StoppingRule(tol=0.0, max_iter=400),
                           record_iterates=True)
        for k, u in enumerate(tr.iterates):
            ok = ok and float(np.linalg.norm(u.x - u_bar.x)) <= cert.bound(k) + 1e-12
    report(7, "geometric-rate certificate dominates the observed error", ok, t0,
           extra=f"theta={cert.theta:.4f}")


@pytest.fixture(scope="module")
def ct_problem():
    geom = paper_ct_geometry(256)
    tp = make_tomo_problem(geom, 0.01, seed=CT_SEED)
    problem = make_tv_problem(tp, reg_weight=3.0, variant="anisotropic",
                              power_seed=CT_SEED)
    return problem, tp


def test_08_ct_reconstruction_quality(ct_problem):
    t0 = time.perf_counter()
    problem, tp = ct_problem
    x_true = tp.x_true.ravel()
    stop = StoppingRule(tol=0.0, max_iter=CT_BUDGET)
    gamma = 1.99 * problem.beta
    _, tr_const = pdfp2o(problem, gamma, 0.125, stop=stop, x_true=x_true)
    sched = bb_dynamic_schedule(problem, lambda0=0.125)
    _, tr_ds = pdfp2o_ds(problem, sched, stop=stop, x_true=x_true)
    snr_const = float(tr_const.snrs[-1])
    snr_ds = float(tr_ds.snrs[-1])
    ok = abs(snr_const - 23.4) <= 1.0 and abs(snr_ds - 23.4) <= 1.0
    report(8, "256x256 CT reconstruction reaches 23.4 +/- 1.0 dB for both solvers",
           ok, t0, extra=f"constant {snr_const:.2f} dB, dynamic {snr_ds:.2f} dB")
    # soft comparison: the dynamic schedule should not be slower to 20 dB
    cross_const = np.nonzero(tr_const.snrs >= 20.0)[0]
    cross_ds = np.nonzero(tr_ds.snrs >= 20.0)[0]
    if cross_const.size and cross_ds.size:
        if cross_ds[0] > cross_const[0]:
            print(f"[acceptance 8] WARN: dynamic crossed 20 dB at iteration "
                  f"{cross_ds[0] + 1} vs {cross_const[0] + 1} for constant steps")
        else:
            print(f"[acceptance 8] soft check: dynamic crossed 20 dB at iteration "
                  f"{cross_ds[0] + 1}, constant at {cross_const[0] + 1}")


def test_09_bit_reproducibility(ct_problem):
    t0 = time.perf_counter()
    ok = True
    # problem construction: matrix, data, and noise are bit-identical
    geom = paper_ct_geometry(256)
    t1 = make_tomo_problem(geom, 0.01, seed=CT_SEED)
    t2 = make_tomo_problem(geom, 0.01, seed=CT_SEED)
    for (a, b) in zip(t1.A.triplets, t2.A.triplets):
        ok = ok and np.array_equal(a, b)
    ok = ok and np.array_equal(t1.b, t2.b)
    # solver runs replay bit-identically (iteration is deterministic, so a
    # truncated replay certifies the full run)
    problem, tp = ct_problem
    stop = StoppingRule(tol=0.0, max_iter=25)
    gamma = 1.99 * problem.beta
    u_a, tr_a = pdfp2o(problem, gamma, 0.125, stop=stop)
    u_b, tr_b = pdfp2o(problem, gamma, 0.125, stop=stop)
    ok = ok and np.array_equal(u_a.x, u_b.x) and np.array_equal(tr_a.objectives, tr_b.objectives)
    # fixture-scale runs rebuilt from scratch are bit-identical end to end
    for builder in (build_lasso1d, build_denoise4, build_deblur8):
        p1, p2 = builder(), builder()
        s = StoppingRule(tol=0.0, max_iter=150)
        ua, ta = pdfp2o(p1, p1.beta, p1.lambda_hi, stop=s)
        ub, tb = pdfp2o(p2, p2.beta, p2.lambda_hi, stop=s)
        ok = ok and np.array_equal(ua.x, ub.x) and np.array_equal(ta.objectives, tb.objectives)
    report(9, "acceptance runs are bit-reproducible for a fixed seed", ok, t0)
