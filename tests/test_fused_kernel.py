"""Operator applications per step of the fixed-point driver, ``pfbs_fp2o``
and ``siu``, and every solver checked bit for bit against a reference loop."""

import dataclasses
import itertools
import math
import re
from typing import NamedTuple, Optional

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_array_equal

import pdfp.solvers
from pdfp import (
    Iterate,
    PDState,
    RunTrace,
    SIUState,
    Schedule,
    SmoothFn,
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
    matrix_op,
    pdfp2o,
    pdfp2o_ds,
    pdfp2o_dsn,
    pdfp2o_kappa,
    pfbs_fp2o,
    quadratic_fn,
    siu,
    UnsupportedProblemError,
    apply_T,
)
from pdfp.linops import dot, norm
from conftest import DENOISE4_DATA, run_differences

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


def unfused_steps(p, sched, lam_ref):
    """The driver before fusion: every step evaluates ``grad f2`` afresh, the
    schedule reads a fresh ``f2`` evaluation, and the objective comes from
    ``Problem.objective``. The dual step is written out as
    ``w = D(z - l D^T v) + v``. ``D^T v`` is carried: after an unrelaxed
    step it is the ``D^T v_T`` the primal update applied, and after a
    relaxed one ``a D^T v + (1 - a) D^T v_T``."""
    v, x = np.zeros(p.D.out_dim), np.zeros(p.D.in_dim)
    Dt_v = p.D.adjoint(v)
    for n in itertools.count():
        g = float(sched.gamma(n, Iterate.at(p.f2, x)))
        l = float(sched.lam(n, None))
        a = float(sched.alpha(n, None))
        z = x - g * p.f2.grad(x)
        w = p.D.forward(z - l * Dt_v) + v
        vt = dual_proj(p.f1, g / l, w)
        Dt_vt = p.D.adjoint(vt)
        xt = z - l * Dt_vt
        res = math.sqrt(dot(xt - x, xt - x) + lam_ref * dot(vt - v, vt - v))
        # the Mann step written out, independent of the package's own
        if a == 0.0:
            v_new, x_new, Dt_v = vt, xt, Dt_vt
        else:
            v_new, x_new = a * v + (1 - a) * vt, a * x + (1 - a) * xt
            Dt_v = a * Dt_v + (1 - a) * Dt_vt
        step, denom = lnorm(v_new - v, x_new - x, lam_ref), max(1.0, lnorm(v, x, lam_ref))
        v, x = v_new, x_new
        yield Step(v, x, p.objective(x), res, step, denom, g, l, a)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
class TestOperatorCounts:
    # the run start adds one f2 evaluation (A, A^T) and one D^T
    COUNTS = {"A_fwd": N_ITER + 1, "A_adj": N_ITER + 1, "D_fwd": 2 * N_ITER, "D_adj": N_ITER + 1}

    def test_unrelaxed_steps_apply_each_operator_once(self, builder):
        for kind in ("pdfp2o", "ds_bb"):
            p, counter = BUILDERS[builder]()
            _run(kind, p)
            assert counter.counts == self.COUNTS, kind

    def test_relaxed_steps_add_one_adjoint(self, builder, monkeypatch):
        # each relaxed step adds one D^T call, as an unrelaxed one does: it carries
        # D^T v' as the Mann step of the two D^T, with no call
        tentative = pdfp.solvers._tentative
        for kind in ("dsn_const", "dsn_bb", "pdfp2o_kappa"):
            p, counter = BUILDERS[builder]()
            seen = []

            def recording(*args, counts=counter.counts, seen=seen, **kwargs):
                seen.append(counts.get("D_adj", 0))
                return tentative(*args, **kwargs)

            monkeypatch.setattr(pdfp.solvers, "_tentative", recording)
            if kind == "pdfp2o_kappa":
                pdfp2o_kappa(p, 1.99 * p.beta, p.lambda_hi, 0.4, stop=STOP)
            else:
                _run(kind, p)
            seen.append(counter.counts["D_adj"])
            assert counter.counts == self.COUNTS, kind
            assert np.diff(seen).tolist() == [1] * N_ITER, kind

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    def test_relaxed_steps_take_the_dot_products_of_unrelaxed_ones(self, builder, tol,
                                                                   monkeypatch):
        # a relaxed step's change is (1 - alpha) times its residual, not a new norm
        p, _ = BUILDERS[builder]()
        g, l, stop = 1.99 * p.beta, p.lambda_hi, StoppingRule(tol=tol, max_iter=N_ITER)
        runs = {"pdfp2o": lambda: pdfp2o(p, g, l, stop=stop),
                "pdfp2o_kappa": lambda: pdfp2o_kappa(p, g, l, 0.4, stop=stop),
                "pdfp2o_dsn": lambda: pdfp2o_dsn(p, constant_schedule(g, l, 0.3, p), stop=stop)}
        calls = []
        monkeypatch.setattr(pdfp.solvers, "dot", lambda a, b: calls.append(1) or dot(a, b))
        per_step = {}
        for name, run in runs.items():
            calls.clear()
            _, tr = run()
            per_step[name] = len(calls) / tr.n_iter
        # the residual's two, and with a tolerance the state size's two
        assert per_step == dict.fromkeys(runs, 2.0 if tol == 0.0 else 4.0)


def lnorm(v, x, lam):
    return math.sqrt(dot(x, x) + lam * dot(v, v))


# Inner loops of 1 to 5 steps: the tolerance ends most early, the cap some.
INNER = StoppingRule(tol=1e-2, max_iter=5)
PFBS_CASES = [(warm, kappa) for warm in (True, False) for kappa in (0.0, 0.4)]


def _pfbs(p, warm, kappa):
    return pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, kappa, INNER, stop=STOP,
                     record_iterates=True, warm_start=warm)


def pfbs_steps(p, gamma, lam, kappa, inner_stop, warm_start, u0=None):
    """``pfbs_fp2o`` before fusion, from ``u0`` (zero when None): ``grad f2`` and
    ``D^T v_i`` afresh at every use, both norms of the inner test afresh, the
    objective from ``Problem.objective``; each inner step's
    ``w = D(z - lam D^T v_i) + v_i``."""
    u0 = p.zeros() if u0 is None else u0
    v, x = u0.v.copy(), u0.x.copy()
    while True:
        z = x - gamma * p.f2.grad(x)
        vi = v if warm_start else np.zeros_like(v)
        inner = 0
        for _ in range(inner_stop.max_iter):
            w = p.D.forward(z - lam * p.D.adjoint(vi)) + vi
            Hv = dual_proj(p.f1, gamma / lam, w)
            vi_new = Hv if kappa == 0.0 else kappa * vi + (1 - kappa) * Hv
            inner += 1
            dv = norm(vi_new - vi)
            ref_v = max(1.0, norm(vi))
            vi = vi_new
            if inner_stop.tol > 0.0 and dv / ref_v <= inner_stop.tol:
                break
        x_new = z - lam * p.D.adjoint(vi)
        step, denom = lnorm(vi - v, x_new - x, lam), max(1.0, lnorm(v, x, lam))
        v, x = vi, x_new
        yield Step(v, x, p.objective(x), step, step, denom, gamma, lam, kappa, inner)


def siu_steps(p):
    nu = 1.0
    return 0.9 / (p.f2.lipschitz + nu * p.lambda_max_ddt), nu


def siu_loop(p, delta, nu, final):
    """``siu`` before fusion: ``A x`` and ``D x`` afresh in each x-update and
    again in ``Problem.objective``. ``final[0]`` gets the latest state."""
    A, b = p.f2.A, p.f2.b
    x, d, v = np.zeros(p.D.in_dim), np.zeros(p.D.out_dim), np.zeros(p.D.out_dim)
    while True:
        x_new = x - delta * A.adjoint(A.forward(x) - b) - delta * nu * p.D.adjoint(
            p.D.forward(x) - d + v
        )
        Dx_new = p.D.forward(x_new)
        d_new = p.f1.prox(1.0 / nu, Dx_new + v)
        v_new = v - (d_new - Dx_new)
        step = math.sqrt(dot(x_new - x, x_new - x) + dot(d_new - d, d_new - d)
                         + dot(v_new - v, v_new - v))
        denom = max(1.0, math.sqrt(dot(x, x) + dot(d, d) + dot(v, v)))
        x, d, v = x_new, d_new, v_new
        final[0] = SIUState(x, d, v)
        yield Step(v, x, p.objective(x), step, step, denom, delta, nu, 0.0)


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
            "D_fwd": k + N_ITER, "D_adj": k + int(warm),
        }

    def test_ifp2o_step_applies_D_D_transpose_and_one_solve(self, builder, monkeypatch):
        # H(v) = P(D x(v) + v) reads the D x(v) of the trace's objective, so
        # a step solves once for x(v) and applies D^T and D once each; the
        # setup (the spectral bound of D Q^{-1} D^T, x(0) and D x(0)) is
        # the same for any budget
        p, counter = BUILDERS[builder]()
        Q, b = dense_ifp2o_data(p)
        solves, cho_solve = [], scipy.linalg.cho_solve
        monkeypatch.setattr(scipy.linalg, "cho_solve",
                            lambda *args: solves.append(1) or cho_solve(*args))
        counts = []
        for budget in (0, N_ITER):
            counter.counts.clear()
            solves.clear()
            ifp2o(Q, b, p.f1, p.D, p.lambda_hi, 0.3, stop=StoppingRule(0.0, budget))
            counts.append(dict(counter.counts, solve=len(solves)))
        setup, run = counts
        assert {k: n - setup[k] for k, n in run.items()} == {
            "D_fwd": N_ITER, "D_adj": N_ITER, "solve": N_ITER}

    def test_ifp2o_refuses_kappa_and_lam_before_any_operator_call(self, builder, monkeypatch):
        p, counter = BUILDERS[builder]()
        Q, b = dense_ifp2o_data(p)
        counter.counts.clear()
        factored = []
        monkeypatch.setattr(scipy.linalg, "cho_factor", lambda *args: factored.append(1))
        for lam in (-1.0, 0.0, math.nan, math.inf):
            named = f"lam={lam} must be positive and finite"
            with pytest.raises(ValueError, match=re.escape(named)):
                ifp2o(Q, b, p.f1, p.D, lam, 0.3, stop=STOP)
        for kappa in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"kappa={kappa} must lie in (0, 1)")):
                ifp2o(Q, b, p.f1, p.D, p.lambda_hi, kappa, stop=STOP)
        assert (counter.counts, factored) == ({}, [])

    def test_ifp2o_refuses_sizes_that_do_not_match_D_before_any_operator_call(self, builder,
                                                                            monkeypatch):
        p, counter = BUILDERS[builder]()
        Q, b = dense_ifp2o_data(p)
        counter.counts.clear()
        factored = []
        monkeypatch.setattr(scipy.linalg, "cho_factor", lambda *args: factored.append(1))
        n, m = p.D.in_dim, p.D.out_dim
        with pytest.raises(ValueError, match=re.escape(f"f1 acts on R^{m // 2} but D maps "
                                                       f"into R^{m}")):
            ifp2o(Q, b, l1_norm_fn(m // 2), p.D, p.lambda_hi, 0.3, stop=STOP)
        with pytest.raises(ValueError, match=re.escape(f"Q acts on R^{n // 4} but D maps "
                                                       f"from R^{n}")):
            ifp2o(Q[:n // 4, :n // 4], b[:n // 4], p.f1, p.D, p.lambda_hi, 0.3, stop=STOP)
        assert (counter.counts, factored) == ({}, [])

    def test_cp_applies_A_transpose_to_b_once_per_run(self, builder):
        p, counter = BUILDERS[builder]()
        chambolle_pock(p, 0.99 * p.lambda_hi / p.beta, p.beta, 1.0, stop=STOP)
        counts = counter.counts
        # the objective applies A once per step, and each conjugate-gradient
        # product A then A^T; A^T b takes one more A^T per run, not one per
        # step (none in closed form, for the identity A)
        cg = counts["A_fwd"] - N_ITER
        assert (cg > 0) == (builder == "ct16")
        assert counts == {"A_fwd": N_ITER + cg, "D_fwd": 2 * N_ITER, "D_adj": N_ITER,
                          **({"A_adj": cg + 1} if cg else {})}

    def test_siu_applies_each_operator_once(self, builder):
        p, counter = BUILDERS[builder]()
        siu(p, *siu_steps(p), stop=STOP)
        # the run start adds one f2 evaluation and D x0
        assert counter.counts == {
            "A_fwd": N_ITER + 1, "A_adj": N_ITER + 1, "D_fwd": N_ITER + 1, "D_adj": N_ITER,
        }

    def test_bad_steps_or_data_term_raise_before_any_operator_call(self, builder):
        p, counter = BUILDERS[builder]()
        delta, nu = siu_steps(p)
        for bad in ((0.0, nu), (-delta, nu), (delta, 0.0), (math.nan, nu)):
            with pytest.raises(ValueError, match="must be positive"):
                siu(p, *bad, stop=STOP)
        # at 3x the proven bound the run would spend its budget without converging
        with pytest.raises(ValueError, match=r"must be below 1/\(L \+ nu\*lambda_max"):
            siu(p, 3.0 * delta / 0.9, nu, stop=STOP)
        # the product range is open above; both steps must be positive
        for sigma, tau in ((1.0, p.lambda_hi), (2.0, p.lambda_hi), (-1.0, -0.5 * p.lambda_hi)):
            with pytest.raises(ValueError, match="sigma="):
                chambolle_pock(p, sigma, tau, 1.0, stop=STOP)
        quartic = SmoothFn(dim=p.D.in_dim, value=lambda x: float(np.sum(x ** 4)),
                           grad=lambda x: 4.0 * x ** 3, lipschitz=12.0)
        q = make_problem(p.f1, quartic, p.D)
        with pytest.raises(UnsupportedProblemError):
            siu(q, delta, nu, stop=STOP)
        with pytest.raises(UnsupportedProblemError):
            chambolle_pock(q, 1.0, 0.5 * q.lambda_hi, 1.0, stop=STOP)
        # with no inner rule the kernel would take one kappa-relaxed dual
        # step, a method outside the family, and record kappa nowhere; with
        # a zero inner budget the dual variable would never move, and the run
        # would take gradient steps on f2 alone
        for warm, kappa in PFBS_CASES:
            with pytest.raises(ValueError, match="inner_stop"):
                pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, kappa, None, stop=STOP,
                          warm_start=warm)
            with pytest.raises(ValueError, match=r"inner_stop\.max_iter >= 1"):
                pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, kappa, StoppingRule(1e-2, 0),
                          stop=STOP, warm_start=warm)
        assert counter.counts == {}


# Inner rules at the edges of the inner loop: no dual step at all (refused),
# exactly one, and the full budget with the inner tolerance test switched off.
INNER_EDGES = {"budget0": StoppingRule(tol=1e-2, max_iter=0),
               "budget1": StoppingRule(tol=1e-2, max_iter=1),
               "tol0": StoppingRule(tol=0.0, max_iter=5)}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("warm,kappa", PFBS_CASES)
@pytest.mark.parametrize("inner", sorted(INNER_EDGES))
def test_pfbs_fp2o_inner_edges_match_unfused_reference(builder, warm, kappa, inner):
    p, counter = BUILDERS[builder]()
    g, l, rule = 1.99 * p.beta, p.lambda_hi, INNER_EDGES[inner]
    xt = x_true_for(p)
    if rule.max_iter == 0:
        # the reference loop would keep v at zero and minimize f2 alone
        with pytest.raises(ValueError, match=r"inner_stop\.max_iter >= 1"):
            pfbs_fp2o(p, g, l, kappa, rule, stop=STOP, warm_start=warm)
        assert counter.counts == {}
        return
    got = pfbs_fp2o(p, g, l, kappa, rule, stop=STOP, x_true=xt, record_iterates=True,
                    warm_start=warm)
    want = expected_trace(pfbs_steps(p, g, l, kappa, rule, warm), STOP, l, p.zeros(), xt,
                          inner=True)
    assert not run_differences(got, (want.iterates[-1], want))
    assert np.all(got[1].inner_iters == rule.max_iter)
    if (inner, warm, kappa) == ("budget1", True, 0.0):
        # one warm-started unrelaxed inner step is pdfp2o, field for field
        plain = pdfp2o(p, g, l, stop=STOP, x_true=xt, record_iterates=True)
        assert not run_differences(got, plain, skip=("inner_iters",))


def test_operators_returning_their_input_are_not_overwritten():
    """A ``D`` that hands back its argument, or a view of it, gives the same
    iterates as one that returns a copy: the dual step writes ``D y + v``
    into ``D``'s output only when that shares no memory with ``y`` or ``v``."""
    aliasing = LinearOp(in_dim=16, out_dim=16, forward=lambda z: z, adjoint=lambda z: z,
                        norm_sq_hint=1.0)
    # a view is not its base, so an identity check would miss it
    viewing = dataclasses.replace(aliasing, forward=lambda z: z[:], adjoint=lambda z: z[:])
    copying = dataclasses.replace(aliasing, forward=np.copy, adjoint=np.copy)
    runs = {
        "pdfp2o": lambda p: pdfp2o(p, 1.99 * p.beta, p.lambda_hi, stop=STOP,
                                   record_iterates=True),
        "pdfp2o_dsn": lambda p: pdfp2o_dsn(p, constant_schedule(1.99 * p.beta, p.lambda_hi, 0.3),
                                           stop=STOP, record_iterates=True),
        **{f"pfbs_fp2o-{warm}-{kappa}": (lambda p, w=warm, k=kappa: _pfbs(p, w, k))
           for warm, kappa in PFBS_CASES},
    }
    ops = {"input": aliasing, "view": viewing, "copy": copying}
    for name, run in runs.items():
        got = {kind: run(make_problem(l1_norm_fn(16, weight=0.2),
                                      quadratic_fn(identity_op(16), DENOISE4_DATA), D))
               for kind, D in ops.items()}
        want = got.pop("copy")
        assert want[1].n_iter == N_ITER, name
        for kind, aliased in got.items():
            assert not run_differences(aliased, want), f"{name}, D returns its {kind}"


# A tolerance under which some warm-started outer steps end after one inner
# step and others later, for inner budgets of 1 to 4: the first inner step's
# change in the workspace's diff buffer, later ones over the iterate they
# retire, and the outer step both reusing and recomputing the inner stop
# test's dot products.
REUSE_TOL = 2e-2


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("warm,kappa", PFBS_CASES)
@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_pfbs_fp2o_workspace_matches_unfused_reference(builder, warm, kappa, budget):
    p, _ = BUILDERS[builder]()
    g, l, rule = 1.99 * p.beta, p.lambda_hi, StoppingRule(tol=REUSE_TOL, max_iter=budget)
    xt = x_true_for(p)
    got = pfbs_fp2o(p, g, l, kappa, rule, stop=STOP, x_true=xt, record_iterates=True,
                    warm_start=warm)
    want = expected_trace(pfbs_steps(p, g, l, kappa, rule, warm), STOP, l, p.zeros(), xt,
                          inner=True)
    assert not run_differences(got, (want.iterates[-1], want))
    if warm and budget > 1:
        assert 1 in want.inner_iters and want.inner_iters.max() > 1


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("kappa,tol", [(0.0, 2.0), (0.4, 1.0)])
@pytest.mark.parametrize("outer_tol", [0.0, 2.0])
def test_pfbs_fp2o_inner_stop_divides_by_the_old_dual_iterate(builder, kappa, tol, outer_tol):
    """The inner stop test reads ``||d|| / max(1, ||v_i||)``, ``v_i`` the iterate the step
    started from. A warm start from a ``v`` far outside the dual ball puts that ratio and
    the one over the new iterate on opposite sides of ``tol``, so the first outer step
    takes one inner step only if the code divides by the old iterate. With ``outer_tol``
    the outer stop test reads the same dots (the workspace's), and ends the run there."""
    p, _ = BUILDERS[builder]()
    g, l, rule = 1.99 * p.beta, p.lambda_hi, StoppingRule(tol=tol, max_iter=5)
    stop = StoppingRule(tol=outer_tol, max_iter=N_ITER)
    u0 = PDState(np.full(p.D.out_dim, 100.0), np.zeros(p.D.in_dim))
    got = pfbs_fp2o(p, g, l, kappa, rule, u0=u0, stop=stop, record_iterates=True)
    want = expected_trace(pfbs_steps(p, g, l, kappa, rule, True, u0), stop, l, u0, inner=True)
    assert not run_differences(got, (want.iterates[-1], want))
    d = norm(want.iterates[1].v - u0.v)
    assert d / max(1.0, norm(u0.v)) <= tol < d / max(1.0, norm(want.iterates[1].v))
    assert want.inner_iters[0] == 1
    assert want.n_iter == (1 if outer_tol else N_ITER)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_results_survive_a_later_call_or_run_on_the_same_problem(builder):
    """Each ``apply_T`` call and each run computes into arrays of its own, so
    a second call or run leaves what the first returned as it was."""
    p, _ = BUILDERS[builder]()
    g, l = 1.99 * p.beta, p.lambda_hi
    u = PDState(np.full(p.D.out_dim, 0.01), np.full(p.D.in_dim, 0.2))
    first = apply_T(p, g, l, u)
    kept = first.copy()
    for again in (u, first):
        apply_T(p, g, l, again)
        assert_array_equal(first.x, kept.x)
        assert_array_equal(first.v, kept.v)
    runs = [lambda u0: pdfp2o(p, g, l, u0=u0, stop=STOP),
            # a relaxed run returns the arrays its own workspace relaxed in place
            lambda u0: pdfp2o_kappa(p, g, l, 0.4, u0=u0, stop=STOP),
            lambda u0: pdfp2o_dsn(p, constant_schedule(g, l, 0.3, p), u0=u0, stop=STOP),
            *(lambda u0, w=warm, k=kappa: pfbs_fp2o(p, g, l, k, INNER, u0=u0, stop=STOP,
                                                    warm_start=w)
              for warm, kappa in PFBS_CASES)]
    for run in runs:
        state, _ = run(None)
        kept = state.copy()
        for u0 in (None, state):
            run(u0)
            assert_array_equal(state.x, kept.x)
            assert_array_equal(state.v, kept.v)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_zero_truth_is_rejected_before_the_first_step(builder):
    # a warm start from u0 applies D^T to its v before the first step; a zero
    # x_true is refused before that call too
    p, counter = BUILDERS[builder]()
    u0, _ = pdfp2o(p, p.beta, p.lambda_hi, stop=STOP)
    zero = np.zeros(p.D.in_dim)
    counter.counts.clear()
    for run in (lambda: pdfp2o(p, p.beta, p.lambda_hi, u0=u0, stop=STOP, x_true=zero),
                lambda: pfbs_fp2o(p, p.beta, p.lambda_hi, 0.0, INNER, u0=u0, stop=STOP,
                                  x_true=zero)):
        with pytest.raises(ValueError, match="x_true must be nonzero"):
            run()
    assert counter.counts == {}


# each solver, all of which take an x_true image; ``Qb`` is ``ifp2o``'s dense data
TRUTH_SOLVERS = {
    "pdfp2o": lambda p, Qb, xt: pdfp2o(p, p.beta, p.lambda_hi, stop=STOP, x_true=xt),
    "pdfp2o_kappa": lambda p, Qb, xt: pdfp2o_kappa(p, p.beta, p.lambda_hi, 0.3, stop=STOP,
                                                   x_true=xt),
    "pdfp2o_ds": lambda p, Qb, xt: pdfp2o_ds(p, constant_schedule(p.beta, p.lambda_hi),
                                             stop=STOP, x_true=xt),
    "pdfp2o_dsn": lambda p, Qb, xt: pdfp2o_dsn(p, constant_schedule(p.beta, p.lambda_hi, 0.3),
                                               stop=STOP, x_true=xt),
    "pfbs_fp2o": lambda p, Qb, xt: pfbs_fp2o(p, p.beta, p.lambda_hi, 0.0, INNER, stop=STOP,
                                             x_true=xt),
    "chambolle_pock": lambda p, Qb, xt: chambolle_pock(p, 0.9 * p.lambda_hi / p.beta, p.beta,
                                                       1.0, stop=STOP, x_true=xt),
    "siu": lambda p, Qb, xt: siu(p, *siu_steps(p), stop=STOP, x_true=xt),
    "ifp2o": lambda p, Qb, xt: ifp2o(*Qb, p.f1, p.D, p.lambda_hi, 0.3, stop=STOP, x_true=xt),
}
# a bad x_true and the error that names it, for a problem whose x lies in R^n
BAD_TRUTHS = {
    "x_true-2d": (lambda n: np.ones((1, n)),
                  lambda n: f"x_true must have shape ({n},), not (1, {n})"),
    "x_true-zero": (np.zeros, lambda n: "x_true must be nonzero"),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("solver", TRUTH_SOLVERS)
@pytest.mark.parametrize("bad", BAD_TRUTHS)
def test_bad_truth_is_rejected_before_any_operator_call(builder, solver, bad, monkeypatch):
    # ||x_true|| is taken once per run, before any operator call or factorization
    p, counter = BUILDERS[builder]()
    make, message = BAD_TRUTHS[bad]
    n = p.D.in_dim
    Qb = dense_ifp2o_data(p)
    counter.counts.clear()
    factored = []
    monkeypatch.setattr(scipy.linalg, "cho_factor", lambda *args: factored.append(1))
    with pytest.raises(ValueError, match=re.escape(message(n))):
        TRUTH_SOLVERS[solver](p, Qb, make(n))
    assert (counter.counts, factored) == ({}, [])


def resolvent_reference(f2, tau, w, x0, tol=1e-10, max_iter=1000):
    """The primal resolvent ``(I + tau A^T A)^{-1}(w + tau A^T b)`` by a
    hand-written conjugate gradient from ``x0``, with the package's ``dot``
    and ``norm``; ``chambolle_pock``'s resolvent must agree with it bit for
    bit."""
    A, b = f2.A, f2.b
    if A.tag == "identity":
        return (w + tau * b) / (1.0 + tau)
    rhs = w + tau * A.adjoint(b)
    apply_M = lambda y: y + tau * A.adjoint(A.forward(y))
    x = x0.copy()
    r = rhs - apply_M(x)
    d = r.copy()
    rs = dot(r, r)
    target = tol * max(norm(rhs), 1e-300)
    for _ in range(max_iter):
        if math.sqrt(rs) <= target:
            break
        Ad = apply_M(d)
        alpha = rs / dot(d, Ad)
        x += alpha * d
        r -= alpha * Ad
        rs_new = dot(r, r)
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
    """``ifp2o``'s loop: the relaxed dual iteration on ``H(v) = P(D x(v) + v)``,
    each primal ``x(v) = Q^{-1}(b - lam D^T v)`` read off by a Cholesky
    solve, the first at ``v = 0``. ``final[0]`` gets the latest primal."""
    cho = scipy.linalg.cho_factor(Q)
    solve = lambda rhs: scipy.linalg.cho_solve(cho, rhs)
    x = solve(b)
    half_bc = 0.5 * dot(b, x)
    v = np.zeros(D.out_dim)
    while True:
        w = D.forward(x) + v
        Hv = dual_proj(f1, 1.0 / lam, w)
        v_new = kappa * v + (1 - kappa) * Hv
        res = norm(Hv - v)
        step, denom = norm(v_new - v), max(1.0, norm(v))
        v = v_new
        x = solve(b - lam * D.adjoint(v))
        final[0] = x
        obj = f1.value(D.forward(x)) + 0.5 * dot(x, Q @ x) - dot(b, x) + half_bc
        yield Step(v, x, obj, res, step, denom, math.nan, lam, kappa)


def expected_trace(steps, stop, lam_ref, u0=None, x_true=None, inner=False):
    """The trace a reference loop gives under ``stop``: the stop test on
    ``step / denom`` and SNR/RelErr against ``x_true`` (NaN columns without it,
    and in ``wall_ms``); ``iterates`` starts at ``u0`` when one is given."""
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
        nt = norm(x_true)
        nds = [norm(s.x - x_true) for s in rows]
        snrs = np.array([20.0 * math.log10(nt / nd) for nd in nds])
        relerrs = np.array([(nd * nd) / (nt * nt) for nd in nds])
    return RunTrace(
        lambda_ref=lam_ref, converged=converged, n_iter=k,
        iters=np.arange(1, k + 1, dtype=np.int64), gammas=col("g"), lams=col("l"),
        alphas=col("a"), objectives=col("obj"), residuals=col("res"), snrs=snrs,
        relerrs=relerrs, wall_ms=nans,
        iterates=None if u0 is None else [u0] + [PDState(s.v, s.x) for s in rows],
        inner_iters=np.array([s.inner for s in rows], dtype=np.int64) if inner else None,
        stop_reason="converged" if converged else "budget")


def x_true_for(p):
    return np.linspace(0.5, 1.5, p.D.in_dim)


def dense_ifp2o_data(p):
    """``Q = A^T A + I`` as a dense symmetric matrix and ``b = A^T b_data``."""
    A = p.f2.A
    Q = np.column_stack([A.adjoint(A.forward(e)) for e in np.eye(p.D.in_dim)])
    return 0.5 * (Q + Q.T) + np.eye(p.D.in_dim), A.adjoint(p.f2.b)


def solver_case(name, p, stop):
    """Runs case ``name`` under ``stop``: the solver's run and its reference loop's, each
    ``(final state, trace)``. A constant-step case takes ``gamma = beta``, or ``1.99 beta``
    where ``name`` ends in ``@1.99``; only the schedule the case runs is built."""
    name, _, scale = name.partition("@")
    g, l = float(scale or 1.0) * p.beta, p.lambda_hi
    xt = x_true_for(p)
    common = dict(stop=stop, x_true=xt, record_iterates=True)
    targets, final = dict(u0=p.zeros(), x_true=xt), None
    if name.startswith("pfbs"):
        _, warm, kappa = name.split("-")
        warm, kappa = warm == "warm", float(kappa)
        got = pfbs_fp2o(p, g, l, kappa, INNER, warm_start=warm, **common)
        steps, lam_ref, targets["inner"] = pfbs_steps(p, g, l, kappa, INNER, warm), l, True
    elif name.startswith("cp"):
        theta = float(name.split("-")[1])
        sigma, tau = 0.9 * l / g, g
        got = chambolle_pock(p, sigma, tau, theta, **common)
        lam_ref = sigma * tau
        steps = cp_steps(p, sigma, tau, theta, lam_ref)
    elif name == "siu":
        final = [SIUState(np.zeros(p.D.in_dim), np.zeros(p.D.out_dim), np.zeros(p.D.out_dim))]
        delta, nu = siu_steps(p)
        got = siu(p, delta, nu, stop=stop, x_true=xt)
        steps, lam_ref, targets = siu_loop(p, delta, nu, final), 1.0, dict(x_true=xt)
    elif name == "ifp2o":
        Q, b = dense_ifp2o_data(p)
        lam = 1.0 / p.lambda_max_ddt
        final = [scipy.linalg.cho_solve(scipy.linalg.cho_factor(Q), b)]
        got = ifp2o(Q, b, p.f1, p.D, lam, 0.3, stop=stop)
        steps, lam_ref, targets = ifp2o_loop(Q, b, p.f1, p.D, lam, 0.3, final), lam, {}
    else:
        # pdfp2o_ds is handed a relaxed schedule, whose alpha it must drop
        alpha = {"pdfp2o": 0.0, "ds_const": 0.5, "ds_bb": 0.5}.get(name, 0.3)
        sched = (bb_dynamic_schedule(p, alpha0=alpha) if name.endswith("_bb")
                 else constant_schedule(g, l, alpha, problem=p))
        if name == "pdfp2o":
            got = pdfp2o(p, g, l, **common)
        elif name == "pdfp2o_kappa":
            got = pdfp2o_kappa(p, g, l, alpha, **common)
        else:
            got = (pdfp2o_dsn if name.startswith("dsn") else pdfp2o_ds)(p, sched, **common)
        lam_ref = float(sched.lam(0, None))
        if name.startswith("ds_"):
            sched = Schedule(sched.gamma, sched.lam, lambda n, it: 0.0)
        steps = unfused_steps(p, sched, lam_ref)
    want = expected_trace(steps, stop, lam_ref, **targets)
    return got, (want.iterates[-1] if final is None else final[0], want)


def smooth4():
    """``denoise4`` with the non-quadratic data term ``sum(sqrt(1 + (x - b)^2))``,
    whose gradient ``(x - b) / sqrt(1 + (x - b)^2)`` is 1-Lipschitz: the kernel
    evaluates it through ``SmoothFn.value_and_grad``."""
    b = DENOISE4_DATA
    f2 = SmoothFn(dim=16, value=lambda x: float(np.sum(np.sqrt(1.0 + (x - b) ** 2))),
                  grad=lambda x: (x - b) / np.sqrt(1.0 + (x - b) ** 2), lipschitz=1.0)
    return make_problem(l1_norm_fn(32, weight=0.2), f2, diff_op_2d(4, 4, "anisotropic"))


def case_problem(name):
    """``ct16``, ``denoise4`` or ``smooth4``; a ``-prox`` suffix drops ``f1.conj_proj``,
    so every dual step takes the ``w - prox`` fallback."""
    name, _, fallback = name.partition("-")
    p = smooth4() if name == "smooth4" else BUILDERS[name]()[0]
    return dataclasses.replace(p, f1=dataclasses.replace(p.f1, conj_proj=None)) if fallback else p


CONSTANT_STEP_CASES = ["pdfp2o", "pdfp2o_kappa", "ds_const", "dsn_const",
                       *(f"pfbs-{'warm' if warm else 'cold'}-{kappa}"
                         for warm, kappa in PFBS_CASES)]
SOLVER_CASES = [*CONSTANT_STEP_CASES, "ds_bb", "dsn_bb", "cp-1.0", "cp-0.0", "siu", "ifp2o"]
# the cases that need a quadratic f2: bb_dynamic reads its residual
QUADRATIC_ONLY = {"ds_bb", "dsn_bb", "cp-1.0", "cp-0.0", "siu"}
EARLY = StoppingRule(tol=1e-2, max_iter=200)
STOPS = {"budget": STOP, "early": EARLY, "empty": StoppingRule(tol=1e-2, max_iter=0)}
PROBLEMS = ["ct16", "denoise4", "smooth4"]
LARGE_STEPS = [f"{name}@1.99" for name in CONSTANT_STEP_CASES]
# every case under every stop; at the fixed budget also the constant-step cases at
# 1.99 beta, where unrelaxed runs do not stop early, and every case with the prox
# fallback. ifp2o takes a dense Q and b, so it has no smooth4 case.
CASES = [case for case in [
    *((problem, stop, name) for problem in PROBLEMS for stop in sorted(STOPS)
      for name in SOLVER_CASES),
    *((problem, "budget", name) for problem in PROBLEMS for name in LARGE_STEPS),
    *((f"{problem}-prox", "budget", name) for problem in PROBLEMS
      for name in SOLVER_CASES + LARGE_STEPS),
] if not (case[0].startswith("smooth4") and case[2] == "ifp2o")]


@pytest.mark.parametrize("problem,stop_name,name", CASES)
def test_solver_trace_matches_reference_loop(problem, stop_name, name):
    """Every solver's final state and every trace field but ``wall_ms`` equal
    those of its reference loop, under a fixed budget, an early stop and an
    empty budget; on ``smooth4`` each solver that needs a quadratic refuses it."""
    p = case_problem(problem)
    if problem.startswith("smooth4") and name in QUADRATIC_ONLY:
        with pytest.raises(UnsupportedProblemError):
            solver_case(name, p, STOPS[stop_name])
        return
    got, want = solver_case(name, p, STOPS[stop_name])
    assert not run_differences(got, want)
    tr = got[1]
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
    got = chambolle_pock(p, sigma, tau, 1.0, stop=stop, record_iterates=True)
    want = expected_trace(iter(rows), stop, lam_ref, p.zeros())
    assert not run_differences(got, (want.iterates[-1], want))
    assert (want.n_iter == n + 1) == (old[n] < new[n])
