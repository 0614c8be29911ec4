"""Operator applications per step of the fixed-point driver, ``pfbs_fp2o``
and ``siu``, and every solver checked bit for bit against a reference loop."""

import dataclasses
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_array_equal

from pdfp import (
    Iterate,
    PDState,
    StoppingRule,
    TomoGeometry,
    bb_dynamic_schedule,
    chambolle_pock,
    conjugate_prox,
    constant_schedule,
    diff_op_2d,
    LinearOp,
    identity_op,
    ifp2o,
    l1_norm_fn,
    make_problem,
    make_tomo_problem,
    mann_combine,
    matrix_op,
    pdfp2o,
    pdfp2o_ds,
    pdfp2o_dsn,
    pfbs_fp2o,
    quadratic_fn,
    siu,
)
from conftest import DENOISE4_DATA

N_ITER = 20


class OpCounter:
    """Per-name call counts of wrapped ``LinearOp`` closures."""

    def __init__(self):
        self.counts = {}

    def wrap(self, op, prefix):
        def counted(fn, name):
            def call(z):
                self.counts[name] = self.counts.get(name, 0) + 1
                return fn(z)
            return call

        return dataclasses.replace(
            op,
            forward=counted(op.forward, f"{prefix}_fwd"),
            adjoint=counted(op.adjoint, f"{prefix}_adj"),
        )


def counted_problem(A, b, f1, D):
    """``make_problem(f1, quadratic_fn(A, b), D)`` with counting ``A`` and ``D``;
    the counter is reset after assembly, so it holds solver calls only."""
    counter = OpCounter()
    f2 = quadratic_fn(counter.wrap(A, "A"), b)
    p = make_problem(f1, f2, counter.wrap(D, "D"))
    counter.counts.clear()
    return p, counter


def ct16():
    geom = TomoGeometry(image_side=16, angles_deg=(0.0, 30.0, 60.0, 90.0, 120.0, 150.0),
                        rays_per_angle=23)
    tp = make_tomo_problem(geom, 0.01, seed=3)
    return counted_problem(matrix_op(tp.A), tp.b, l1_norm_fn(512, weight=0.05),
                           diff_op_2d(16, 16, "anisotropic"))


def denoise4():
    return counted_problem(identity_op(16), DENOISE4_DATA, l1_norm_fn(32, weight=0.2),
                           diff_op_2d(4, 4, "anisotropic"))


BUILDERS = {"ct16": ct16, "denoise4": denoise4}
STOP = StoppingRule(tol=0.0, max_iter=N_ITER)


def _schedule(kind, p):
    alpha = 0.3 if kind.startswith("dsn") else 0.0
    if kind.endswith("_bb"):
        return bb_dynamic_schedule(p, alpha0=alpha or 0.5)
    return constant_schedule(1.99 * p.beta, p.lambda_hi, alpha=alpha, problem=p)


def _run(kind, p):
    """``pdfp2o`` at constant steps, ``pdfp2o_ds`` + ``bb_dynamic``, or
    ``pdfp2o_dsn`` relaxed by 0.3 at constant or ``bb_dynamic`` steps."""
    sched = _schedule(kind, p)
    if kind == "pdfp2o":
        return pdfp2o(p, sched.gamma(0, None), sched.lam(0, None), stop=STOP,
                      record_iterates=True)
    solver = pdfp2o_ds if kind == "ds_bb" else pdfp2o_dsn
    return solver(p, sched, stop=STOP, record_iterates=True)


class Step(NamedTuple):
    """One step of a reference loop: the new state, the objective and
    residual columns, the relative change ``step / denom`` the stop test
    reads, and the gamma/lambda/alpha/inner columns."""

    v: np.ndarray
    x: np.ndarray
    obj: float
    res: float
    step: float
    denom: float
    g: float = math.nan
    l: float = math.nan
    a: float = math.nan
    inner: Optional[int] = None


def dual_proj(f1, t, w):
    """``(I - prox_{t f1})(w)`` as the solvers' dual step takes it: the
    in-place ``f1.conj_proj`` when ``f1`` has one, ``w - prox`` otherwise."""
    return w - f1.prox(t, w) if f1.conj_proj is None else f1.conj_proj(t, w)


def unfused_steps(p, sched, relaxed, lam_ref):
    """The driver before fusion: every step evaluates ``grad f2`` and
    ``D^T v`` afresh, the schedule reads a fresh ``f2`` evaluation, and the
    objective comes from ``Problem.objective``."""
    v, x = np.zeros(p.D.out_dim), np.zeros(p.D.in_dim)
    for n in itertools.count():
        g = float(sched.gamma(n, Iterate.at(p.f2, x)))
        l = float(sched.lam(n, None))
        a = float(sched.alpha(n, None)) if relaxed else 0.0
        z = x - g * p.f2.grad(x)
        w = p.D.forward(z) + (v - l * p.D.forward(p.D.adjoint(v)))
        vt = dual_proj(p.f1, g / l, w)
        xt = z - l * p.D.adjoint(vt)
        res = math.sqrt(float((xt - x) @ (xt - x)) + lam_ref * float((vt - v) @ (vt - v)))
        v_new, x_new = (vt, xt) if a == 0.0 else (mann_combine(a, v, vt), mann_combine(a, x, xt))
        step, denom = lnorm(v_new - v, x_new - x, lam_ref), max(1.0, lnorm(v, x, lam_ref))
        v, x = v_new, x_new
        yield Step(v, x, p.objective(x), res, step, denom, g, l, a)


def unfused_reference(p, sched, n_iter, relaxed):
    steps = list(itertools.islice(
        unfused_steps(p, sched, relaxed, float(sched.lam(0, None))), n_iter))
    xs = [np.zeros(p.D.in_dim)] + [s.x for s in steps]
    vs = [np.zeros(p.D.out_dim)] + [s.v for s in steps]
    return (xs, vs, np.array([s.obj for s in steps]), np.array([s.res for s in steps]),
            np.array([s.g for s in steps]))


@pytest.mark.parametrize("builder", sorted(BUILDERS))
class TestOperatorCounts:
    def test_unrelaxed_steps_apply_each_operator_once(self, builder):
        for kind in ("pdfp2o", "ds_bb"):
            p, counter = BUILDERS[builder]()
            _run(kind, p)
            # the run start adds one f2 evaluation (A, A^T) and one D^T
            assert counter.counts == {
                "A_fwd": N_ITER + 1, "A_adj": N_ITER + 1,
                "D_fwd": 3 * N_ITER, "D_adj": N_ITER + 1,
            }, kind

    def test_relaxed_steps_add_one_adjoint(self, builder):
        for kind in ("dsn_const", "dsn_bb"):
            p, counter = BUILDERS[builder]()
            _run(kind, p)
            assert counter.counts == {
                "A_fwd": N_ITER + 1, "A_adj": N_ITER + 1,
                "D_fwd": 3 * N_ITER, "D_adj": 2 * N_ITER,
            }, kind


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("kind", ["pdfp2o", "ds_bb", "dsn_const", "dsn_bb"])
def test_fused_driver_matches_unfused_reference(builder, kind):
    p, _ = BUILDERS[builder]()
    sched = _schedule(kind, p)
    relaxed = kind.startswith("dsn")
    xs, vs, objs, ress, gammas = unfused_reference(p, sched, N_ITER, relaxed)
    _, tr = _run(kind, p)
    assert len(tr.iterates) == N_ITER + 1
    for u, x, v in zip(tr.iterates, xs, vs):
        assert_array_equal(u.x, x)
        assert_array_equal(u.v, v)
    assert_array_equal(tr.objectives, objs)
    assert_array_equal(tr.residuals, ress)
    assert_array_equal(tr.gammas, gammas)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_prox_fallback_matches_unfused_reference(builder):
    # an f1 without conj_proj takes the dual step as w - prox(t, w)
    p, _ = BUILDERS[builder]()
    p = dataclasses.replace(p, f1=dataclasses.replace(p.f1, conj_proj=None))
    sched = _schedule("pdfp2o", p)
    xs, vs, objs, _, _ = unfused_reference(p, sched, N_ITER, relaxed=False)
    _, tr = _run("pdfp2o", p)
    for u, x, v in zip(tr.iterates, xs, vs):
        assert_array_equal(u.x, x)
        assert_array_equal(u.v, v)
    assert_array_equal(tr.objectives, objs)


def lnorm(v, x, lam):
    return math.sqrt(float(x @ x) + lam * float(v @ v))


# Inner loops of 1 to 5 steps: the tolerance ends most early, the cap some.
INNER = StoppingRule(tol=1e-2, max_iter=5)
PFBS_CASES = [(warm, kappa) for warm in (True, False) for kappa in (0.0, 0.4)]


def _pfbs(p, warm, kappa):
    return pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, kappa, INNER, stop=STOP,
                     record_iterates=True, warm_start=warm)


def pfbs_steps(p, gamma, lam, kappa, inner_stop, warm_start):
    """``pfbs_fp2o`` before fusion: ``grad f2`` and ``D^T v_i`` afresh at every
    use, both norms of the inner test afresh, the objective from
    ``Problem.objective``."""
    v, x = np.zeros(p.D.out_dim), np.zeros(p.D.in_dim)
    while True:
        z = x - gamma * p.f2.grad(x)
        Dz = p.D.forward(z)
        vi = v if warm_start else np.zeros_like(v)
        inner = 0
        for _ in range(inner_stop.max_iter):
            w = Dz + (vi - lam * p.D.forward(p.D.adjoint(vi)))
            Hv = dual_proj(p.f1, gamma / lam, w)
            vi_new = Hv if kappa == 0.0 else mann_combine(kappa, vi, Hv)
            inner += 1
            dv = float(np.linalg.norm(vi_new - vi))
            ref_v = max(1.0, float(np.linalg.norm(vi)))
            vi = vi_new
            if inner_stop.tol > 0.0 and dv / ref_v <= inner_stop.tol:
                break
        x_new = z - lam * p.D.adjoint(vi)
        step, denom = lnorm(vi - v, x_new - x, lam), max(1.0, lnorm(v, x, lam))
        v, x = vi, x_new
        yield Step(v, x, p.objective(x), step, step, denom, gamma, lam, kappa, inner)


def pfbs_reference(p, gamma, lam, kappa, inner_stop, n_iter, warm_start):
    steps = list(itertools.islice(
        pfbs_steps(p, gamma, lam, kappa, inner_stop, warm_start), n_iter))
    xs = [np.zeros(p.D.in_dim)] + [s.x for s in steps]
    vs = [np.zeros(p.D.out_dim)] + [s.v for s in steps]
    return (xs, vs, np.array([s.obj for s in steps]), np.array([s.res for s in steps]),
            np.array([s.inner for s in steps]))


def siu_steps(p):
    nu = 1.0
    return 0.9 / (p.f2.lipschitz + nu * p.lambda_max_ddt), nu


def siu_loop(p, delta, nu, final):
    """``siu`` before fusion: ``A x`` and ``D x`` afresh in each x-update and
    again in ``Problem.objective``. ``final`` gets the latest ``(x, d, v)``."""
    A, b = p.f2.A, p.f2.b
    x, d, v = np.zeros(p.D.in_dim), np.zeros(p.D.out_dim), np.zeros(p.D.out_dim)
    while True:
        x_new = x - delta * A.adjoint(A.forward(x) - b) - delta * nu * p.D.adjoint(
            p.D.forward(x) - d + v
        )
        Dx_new = p.D.forward(x_new)
        d_new = p.f1.prox(1.0 / nu, Dx_new + v)
        v_new = v - (d_new - Dx_new)
        step = math.sqrt(float((x_new - x) @ (x_new - x))
                         + float((d_new - d) @ (d_new - d))
                         + float((v_new - v) @ (v_new - v)))
        denom = max(1.0, math.sqrt(float(x @ x) + float(d @ d) + float(v @ v)))
        x, d, v = x_new, d_new, v_new
        final[:] = [x, d, v]
        yield Step(v, x, p.objective(x), step, step, denom, delta, nu, 0.0)


def siu_reference(p, delta, nu, n_iter):
    final = [None] * 3
    steps = list(itertools.islice(siu_loop(p, delta, nu, final), n_iter))
    return tuple(final), np.array([s.obj for s in steps]), np.array([s.res for s in steps])


@pytest.mark.parametrize("builder", sorted(BUILDERS))
class TestSplitSolverOperatorCounts:
    @pytest.mark.parametrize("warm,kappa", PFBS_CASES)
    def test_pfbs_fp2o_outer_step(self, builder, warm, kappa):
        p, counter = BUILDERS[builder]()
        _, tr = _pfbs(p, warm, kappa)
        k = int(tr.inner_iters.sum())
        # the run start adds one f2 evaluation, and a warm start one D^T
        assert counter.counts == {
            "A_fwd": N_ITER + 1, "A_adj": N_ITER + 1,
            "D_fwd": k + 2 * N_ITER, "D_adj": k + int(warm),
        }

    def test_siu_applies_each_operator_once(self, builder):
        p, counter = BUILDERS[builder]()
        siu(p, *siu_steps(p), stop=STOP)
        # the run start adds one f2 evaluation and D x0
        assert counter.counts == {
            "A_fwd": N_ITER + 1, "A_adj": N_ITER + 1, "D_fwd": N_ITER + 1, "D_adj": N_ITER,
        }


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("warm,kappa", PFBS_CASES)
def test_pfbs_fp2o_matches_unfused_reference(builder, warm, kappa):
    p, _ = BUILDERS[builder]()
    xs, vs, objs, ress, inners = pfbs_reference(
        p, 1.99 * p.beta, p.lambda_hi, kappa, INNER, N_ITER, warm)
    _, tr = _pfbs(p, warm, kappa)
    assert len(tr.iterates) == N_ITER + 1
    for u, x, v in zip(tr.iterates, xs, vs):
        assert_array_equal(u.x, x)
        assert_array_equal(u.v, v)
    assert_array_equal(tr.objectives, objs)
    assert_array_equal(tr.residuals, ress)
    assert_array_equal(tr.inner_iters, inners)


# Inner rules at the edges of the inner loop: no dual step at all, exactly
# one, and the full budget with the inner tolerance test switched off.
INNER_EDGES = {"budget0": StoppingRule(tol=1e-2, max_iter=0),
               "budget1": StoppingRule(tol=1e-2, max_iter=1),
               "tol0": StoppingRule(tol=0.0, max_iter=5)}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("warm,kappa", PFBS_CASES)
@pytest.mark.parametrize("inner", sorted(INNER_EDGES))
def test_pfbs_fp2o_inner_edges_match_unfused_reference(builder, warm, kappa, inner):
    p, _ = BUILDERS[builder]()
    g, l, rule = 1.99 * p.beta, p.lambda_hi, INNER_EDGES[inner]
    xt, ref = x_true_for(p), ref_state_for(p)
    state, tr = pfbs_fp2o(p, g, l, kappa, rule, stop=STOP, ref=ref, x_true=xt,
                          record_iterates=True, warm_start=warm)
    want = expected_trace(pfbs_steps(p, g, l, kappa, rule, warm), STOP, l, p.zeros(), ref, xt,
                          inner=True)
    assert_trace_matches(tr, want)
    assert_array_equal(state.x, want["iterates"][-1].x)
    assert_array_equal(state.v, want["iterates"][-1].v)
    assert np.all(tr.inner_iters == rule.max_iter)
    if (inner, warm, kappa) == ("budget1", True, 0.0):
        # one warm-started unrelaxed inner step is pdfp2o, field for field
        _, tr_p = pdfp2o(p, g, l, stop=STOP, ref=ref, x_true=xt, record_iterates=True)
        assert_trace_matches(tr, {name: getattr(tr_p, name) for name in want
                                  if name != "inner_iters"})


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_siu_matches_unfused_reference(builder):
    p, _ = BUILDERS[builder]()
    delta, nu = siu_steps(p)
    (x, d, v), objs, ress = siu_reference(p, delta, nu, N_ITER)
    state, tr = siu(p, delta, nu, stop=STOP)
    assert_array_equal(state.x, x)
    assert_array_equal(state.d, d)
    assert_array_equal(state.v, v)
    assert_array_equal(tr.objectives, objs)
    assert_array_equal(tr.residuals, ress)


def test_operators_returning_their_input_are_not_overwritten():
    """A ``D`` that hands back its argument (or any array the caller keeps)
    gives the same iterates as one that returns a copy."""
    aliasing = LinearOp(in_dim=16, out_dim=16, forward=lambda z: z, adjoint=lambda z: z,
                        norm_sq_hint=1.0)
    copying = dataclasses.replace(aliasing, forward=np.copy, adjoint=np.copy)
    runs = {
        "pdfp2o": lambda p: pdfp2o(p, 1.99 * p.beta, p.lambda_hi, stop=STOP,
                                   record_iterates=True),
        "pdfp2o_dsn": lambda p: pdfp2o_dsn(p, constant_schedule(1.99 * p.beta, p.lambda_hi, 0.3),
                                           stop=STOP, record_iterates=True),
        **{f"pfbs_fp2o-{warm}-{kappa}": (lambda p, w=warm, k=kappa: _pfbs(p, w, k))
           for warm, kappa in PFBS_CASES},
    }
    for name, run in runs.items():
        got, want = (run(make_problem(l1_norm_fn(16, weight=0.2),
                                      quadratic_fn(identity_op(16), DENOISE4_DATA), D))[1]
                     for D in (aliasing, copying))
        for u, w in zip(got.iterates, want.iterates):
            assert_array_equal(u.x, w.x, err_msg=name)
            assert_array_equal(u.v, w.v, err_msg=name)
        assert_array_equal(got.objectives, want.objectives, err_msg=name)


def resolvent_reference(f2, tau, w, x0, tol=1e-10, max_iter=1000):
    """The primal resolvent ``(I + tau A^T A)^{-1}(w + tau A^T b)`` by a
    hand-written conjugate gradient from ``x0``; scipy's ``cg``, which
    ``chambolle_pock`` calls, must agree with it bit for bit."""
    A, b = f2.A, f2.b
    if A.tag == "identity":
        return (w + tau * b) / (1.0 + tau)
    rhs = w + tau * A.adjoint(b)
    apply_M = lambda y: y + tau * A.adjoint(A.forward(y))
    x = x0.copy()
    r = rhs - apply_M(x)
    d = r.copy()
    rs = float(r @ r)
    target = tol * max(float(np.linalg.norm(rhs)), 1e-300)
    for _ in range(max_iter):
        if math.sqrt(rs) <= target:
            break
        Ad = apply_M(d)
        alpha = rs / float(d @ Ad)
        x += alpha * d
        r -= alpha * Ad
        rs_new = float(r @ r)
        d = r + (rs_new / rs) * d
        rs = rs_new
    return x


def cp_steps(p, sigma, tau, theta, lam_ref):
    """``chambolle_pock``'s loop at constant ``sigma`` and ``tau``."""
    vbar, x = np.zeros(p.D.out_dim), np.zeros(p.D.in_dim)
    y = x.copy()
    while True:
        vbar_new = conjugate_prox(p.f1, sigma, vbar + sigma * p.D.forward(y))
        x_new = resolvent_reference(p.f2, tau, x - tau * p.D.adjoint(vbar_new), x)
        y = x_new + theta * (x_new - x)
        step = lnorm(vbar_new - vbar, x_new - x, lam_ref)
        denom = max(1.0, lnorm(vbar, x, lam_ref))
        vbar, x = vbar_new, x_new
        yield Step(vbar, x, p.objective(x), step, step, denom, tau, sigma, theta)


def ifp2o_loop(Q, b, f1, D, lam, kappa, final):
    """``ifp2o``'s loop: the relaxed dual iteration on ``H``, each primal
    read off by a Cholesky solve. ``final`` gets the latest primal."""
    cho = scipy.linalg.cho_factor(Q)
    solve = lambda rhs: scipy.linalg.cho_solve(cho, rhs)
    Dc = D.forward(solve(b))
    v = np.zeros(D.out_dim)
    while True:
        w = Dc + (v - lam * D.forward(solve(D.adjoint(v))))
        Hv = dual_proj(f1, 1.0 / lam, w)
        v_new = mann_combine(kappa, v, Hv)
        res = float(np.linalg.norm(Hv - v))
        step, denom = float(np.linalg.norm(v_new - v)), max(1.0, float(np.linalg.norm(v)))
        v = v_new
        x = solve(b - lam * D.adjoint(v))
        final[:] = [x]
        obj = f1.value(D.forward(x)) + 0.5 * float(x @ (Q @ x)) - float(b @ x)
        yield Step(v, x, obj, res, step, denom, math.nan, lam, kappa)


def expected_trace(steps, stop, lam_ref, u0=None, ref=None, x_true=None, inner=False):
    """The trace a reference loop gives under ``stop``: the stop test on
    ``step / denom``, the distance to ``ref`` in the ``lam_ref`` norm, and
    SNR/RelErr against ``x_true`` (NaN columns where these are absent)."""
    rows, converged = [], False
    for s in itertools.islice(steps, stop.max_iter):
        rows.append(s)
        if stop.tol > 0.0 and s.step / s.denom <= stop.tol:
            converged = True
            break
    k = len(rows)
    col = lambda name: np.array([getattr(s, name) for s in rows])
    nans = np.full(k, math.nan)
    snrs = relerrs = nans
    if x_true is not None:
        nt = float(np.linalg.norm(x_true))
        nds = [float(np.linalg.norm(s.x - x_true)) for s in rows]
        snrs = np.array([20.0 * math.log10(nt / nd) for nd in nds])
        relerrs = np.array([(nd * nd) / (nt * nt) for nd in nds])
    return {
        "converged": converged,
        "stop_reason": "converged" if converged else "budget",
        "n_iter": k,
        "lambda_ref": lam_ref,
        "iters": np.arange(1, k + 1, dtype=np.int64),
        "gammas": col("g"),
        "lams": col("l"),
        "alphas": col("a"),
        "objectives": col("obj"),
        "residuals": col("res"),
        "dist_ref": nans if ref is None else np.array(
            [lnorm(s.v - ref.v, s.x - ref.x, lam_ref) for s in rows]),
        "snrs": snrs,
        "relerrs": relerrs,
        "inner_iters": np.array([s.inner for s in rows], dtype=np.int64) if inner else None,
        "iterates": None if u0 is None else [u0] + [PDState(s.v, s.x) for s in rows],
    }


def assert_trace_matches(tr, want):
    for name, value in want.items():
        got = getattr(tr, name)
        if value is None:
            assert got is None, name
        elif name == "iterates":
            assert len(got) == len(value)
            for u, w in zip(got, value):
                assert_array_equal(u.x, w.x)
                assert_array_equal(u.v, w.v)
        elif isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, name
            assert_array_equal(got, value, err_msg=name)
        else:
            assert got == value, name


def x_true_for(p):
    return np.linspace(0.5, 1.5, p.D.in_dim)


def ref_state_for(p):
    return PDState(np.full(p.D.out_dim, 0.01), np.full(p.D.in_dim, 0.2))


def dense_ifp2o_data(p):
    """``Q = A^T A + I`` as a dense symmetric matrix and ``b = A^T b_data``."""
    A = p.f2.A
    Q = np.column_stack([A.adjoint(A.forward(e)) for e in np.eye(p.D.in_dim)])
    return 0.5 * (Q + Q.T) + np.eye(p.D.in_dim), A.adjoint(p.f2.b)


def solver_case(name, p, stop):
    """Runs solver ``name`` under ``stop``; returns its final state arrays and
    trace, and the reference loop's final state arrays and expected trace."""
    g, l = p.beta, p.lambda_hi
    xt, ref, u0 = x_true_for(p), ref_state_for(p), p.zeros()
    common = dict(stop=stop, ref=ref, x_true=xt, record_iterates=True)
    if name in ("pdfp2o", "ds_bb", "dsn_const", "dsn_bb"):
        sched = {"pdfp2o": constant_schedule(g, l, problem=p),
                 "ds_bb": bb_dynamic_schedule(p),
                 "dsn_const": constant_schedule(g, l, 0.3, problem=p),
                 "dsn_bb": bb_dynamic_schedule(p, alpha0=0.3)}[name]
        if name == "pdfp2o":
            state, tr = pdfp2o(p, g, l, **common)
        else:
            state, tr = (pdfp2o_ds if name == "ds_bb" else pdfp2o_dsn)(p, sched, **common)
        lam_ref = float(sched.lam(0, None))
        steps = unfused_steps(p, sched, name.startswith("dsn"), lam_ref)
        want = expected_trace(steps, stop, lam_ref, u0, ref, xt)
        return (state.v, state.x), tr, (want["iterates"][-1].v, want["iterates"][-1].x), want
    if name.startswith("pfbs"):
        _, warm, kappa = name.split("-")
        warm, kappa = warm == "warm", float(kappa)
        state, tr = pfbs_fp2o(p, g, l, kappa, INNER, warm_start=warm, **common)
        want = expected_trace(pfbs_steps(p, g, l, kappa, INNER, warm), stop, l, u0, ref, xt,
                              inner=True)
        return (state.v, state.x), tr, (want["iterates"][-1].v, want["iterates"][-1].x), want
    if name.startswith("cp"):
        theta = float(name.split("-")[1])
        sigma, tau = 0.9 * l / g, g
        state, tr = chambolle_pock(p, sigma, tau, theta, **common)
        want = expected_trace(cp_steps(p, sigma, tau, theta, sigma * tau), stop, sigma * tau,
                              u0, ref, xt)
        return (state.v, state.x), tr, (want["iterates"][-1].v, want["iterates"][-1].x), want
    if name == "siu":
        final = [np.zeros(p.D.in_dim), np.zeros(p.D.out_dim), np.zeros(p.D.out_dim)]
        delta, nu = siu_steps(p)
        state, tr = siu(p, delta, nu, stop=stop, x_true=xt)
        want = expected_trace(siu_loop(p, delta, nu, final), stop, 1.0, x_true=xt)
        return (state.x, state.d, state.v), tr, tuple(final), want
    Q, b = dense_ifp2o_data(p)
    lam = 1.0 / p.lambda_max_ddt
    final = [scipy.linalg.cho_solve(scipy.linalg.cho_factor(Q),
                                    b - lam * p.D.adjoint(np.zeros(p.D.out_dim)))]
    x, tr = ifp2o(Q, b, p.f1, p.D, lam, 0.3, stop=stop)
    want = expected_trace(ifp2o_loop(Q, b, p.f1, p.D, lam, 0.3, final), stop, lam)
    return (x,), tr, tuple(final), want


SOLVER_CASES = ["pdfp2o", "ds_bb", "dsn_const", "dsn_bb",
                *(f"pfbs-{'warm' if warm else 'cold'}-{kappa}" for warm, kappa in PFBS_CASES),
                "cp-1.0", "cp-0.0", "siu", "ifp2o"]
EARLY = StoppingRule(tol=1e-2, max_iter=200)
STOPS = {"budget": STOP, "early": EARLY, "empty": StoppingRule(tol=1e-2, max_iter=0)}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("stop_name", sorted(STOPS))
@pytest.mark.parametrize("name", SOLVER_CASES)
def test_solver_trace_matches_reference_loop(builder, stop_name, name):
    """Every solver's state and every trace field but ``wall_ms`` equal
    those of its reference loop, under a fixed budget, an early stop and an
    empty budget."""
    p, _ = BUILDERS[builder]()
    state, tr, want_state, want = solver_case(name, p, STOPS[stop_name])
    assert_trace_matches(tr, want)
    assert len(state) == len(want_state)
    for got, w in zip(state, want_state):
        assert_array_equal(got, w)
    if stop_name == "early":
        assert tr.converged and tr.n_iter < EARLY.max_iter
    if stop_name == "empty":
        assert tr.n_iter == 0 and len(tr.wall_ms) == 0


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_cp_stop_test_divides_by_the_old_state(builder):
    """``chambolle_pock`` stops on ``change / max(1, ||old state||)``. The
    tolerance here falls between that ratio and the one over the new state
    at the first step where the two straddle a value no earlier step
    reaches, so the stop iteration tells which state the code divides by."""
    p, _ = BUILDERS[builder]()
    sigma, tau = 0.9 * p.lambda_hi / p.beta, p.beta
    lam_ref = sigma * tau
    rows = list(itertools.islice(cp_steps(p, sigma, tau, 1.0, lam_ref), 400))
    old = [s.step / s.denom for s in rows]
    new = [s.step / max(1.0, lnorm(s.v, s.x, lam_ref)) for s in rows]
    n = next(k for k in range(1, len(rows))
             if max(old[k], new[k]) < min(old[:k] + new[:k]) and old[k] != new[k])
    tol = 0.5 * (old[n] + new[n])
    stop = StoppingRule(tol=tol, max_iter=len(rows))
    state, tr = chambolle_pock(p, sigma, tau, 1.0, stop=stop)
    want = expected_trace(iter(rows), stop, lam_ref)
    assert_trace_matches(tr, want)
    assert_array_equal(state.x, rows[tr.n_iter - 1].x)
    assert_array_equal(state.v, rows[tr.n_iter - 1].v)
    assert (tr.n_iter == n + 1) == (old[n] < new[n])
