"""Operator applications per step of the fixed-point driver, ``pfbs_fp2o``
and ``siu``, and each checked bit for bit against an unfused reference loop."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pdfp import (
    Iterate,
    StoppingRule,
    TomoGeometry,
    bb_dynamic_schedule,
    constant_schedule,
    diff_op_2d,
    LinearOp,
    identity_op,
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


def unfused_reference(p, sched, n_iter, relaxed):
    """The driver before fusion: every step evaluates ``grad f2`` and
    ``D^T v`` afresh, the schedule reads a fresh ``f2`` evaluation, and the
    objective comes from ``Problem.objective``."""
    v, x = np.zeros(p.D.out_dim), np.zeros(p.D.in_dim)
    lam_ref = float(sched.lam(0, None))
    xs, vs, objs, ress, gammas = [x], [v], [], [], []
    for n in range(n_iter):
        g = float(sched.gamma(n, Iterate.at(p.f2, x)))
        l = float(sched.lam(n, None))
        a = float(sched.alpha(n, None)) if relaxed else 0.0
        z = x - g * p.f2.grad(x)
        w = p.D.forward(z) + (v - l * p.D.forward(p.D.adjoint(v)))
        vt = w - p.f1.prox(g / l, w)
        xt = z - l * p.D.adjoint(vt)
        ress.append(math.sqrt(float((xt - x) @ (xt - x)) + lam_ref * float((vt - v) @ (vt - v))))
        if a == 0.0:
            v, x = vt, xt
        else:
            v, x = mann_combine(a, v, vt), mann_combine(a, x, xt)
        xs.append(x)
        vs.append(v)
        objs.append(p.objective(x))
        gammas.append(g)
    return xs, vs, np.array(objs), np.array(ress), np.array(gammas)


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


def lnorm(v, x, lam):
    return math.sqrt(float(x @ x) + lam * float(v @ v))


# Inner loops of 1 to 5 steps: the tolerance ends most early, the cap some.
INNER = StoppingRule(tol=1e-2, max_iter=5)
PFBS_CASES = [(warm, kappa) for warm in (True, False) for kappa in (0.0, 0.4)]


def _pfbs(p, warm, kappa):
    return pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, kappa, INNER, stop=STOP,
                     record_iterates=True, warm_start=warm)


def pfbs_reference(p, gamma, lam, kappa, inner_stop, n_iter, warm_start):
    """``pfbs_fp2o`` before fusion: ``grad f2`` and ``D^T v_i`` afresh at every
    use, both norms of the inner test afresh, the objective from
    ``Problem.objective``."""
    v, x = np.zeros(p.D.out_dim), np.zeros(p.D.in_dim)
    xs, vs, objs, ress, inners = [x], [v], [], [], []
    for _ in range(n_iter):
        z = x - gamma * p.f2.grad(x)
        Dz = p.D.forward(z)
        vi = v if warm_start else np.zeros_like(v)
        inner = 0
        for _ in range(inner_stop.max_iter):
            w = Dz + (vi - lam * p.D.forward(p.D.adjoint(vi)))
            Hv = w - p.f1.prox(gamma / lam, w)
            vi_new = Hv if kappa == 0.0 else mann_combine(kappa, vi, Hv)
            inner += 1
            dv = float(np.linalg.norm(vi_new - vi))
            ref_v = max(1.0, float(np.linalg.norm(vi)))
            vi = vi_new
            if inner_stop.tol > 0.0 and dv / ref_v <= inner_stop.tol:
                break
        x_new = z - lam * p.D.adjoint(vi)
        ress.append(lnorm(vi - v, x_new - x, lam))
        v, x = vi, x_new
        xs.append(x)
        vs.append(v)
        objs.append(p.objective(x))
        inners.append(inner)
    return xs, vs, np.array(objs), np.array(ress), np.array(inners)


def siu_steps(p):
    nu = 1.0
    return 0.9 / (p.f2.lipschitz + nu * p.lambda_max_ddt), nu


def siu_reference(p, delta, nu, n_iter):
    """``siu`` before fusion: ``A x`` and ``D x`` afresh in each x-update and
    again in ``Problem.objective``."""
    A, b = p.f2.A, p.f2.b
    x, d, v = np.zeros(p.D.in_dim), np.zeros(p.D.out_dim), np.zeros(p.D.out_dim)
    objs, ress = [], []
    for _ in range(n_iter):
        x_new = x - delta * A.adjoint(A.forward(x) - b) - delta * nu * p.D.adjoint(
            p.D.forward(x) - d + v
        )
        Dx_new = p.D.forward(x_new)
        d_new = p.f1.prox(1.0 / nu, Dx_new + v)
        v_new = v - (d_new - Dx_new)
        ress.append(math.sqrt(float((x_new - x) @ (x_new - x))
                              + float((d_new - d) @ (d_new - d))
                              + float((v_new - v) @ (v_new - v))))
        objs.append(p.objective(x_new))
        x, d, v = x_new, d_new, v_new
    return (x, d, v), np.array(objs), np.array(ress)


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
