"""Primal-dual fixed point solvers over the shared (v, x) state.

The family shares one iteration kernel: a forward step on the smooth term,
a shrinkage step on the dual variable, and a dual correction of the primal,
optionally relaxed by a convex combination with the previous state; the
inner/outer splitting runs the same kernel with an inner loop of dual
steps. The comparison solvers (an inverse-matrix fixed point scheme, a
primal-dual hybrid gradient scheme, and a split inexact Uzawa scheme)
expose the standard forms the kernel is equivalent to.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import diagnostics
from .linops import POWER_TOL, LinearOp, op_norm_sq
from .prox import QuadraticFn, conjugate_prox


class UnsupportedProblemError(ValueError):
    """Raised when a solver cannot handle the supplied problem structure."""


@dataclass
class PDState:
    """The primal-dual iterate ``u = (v, x)``; ``v`` is the dual variable."""

    v: np.ndarray
    x: np.ndarray

    def copy(self):
        return PDState(self.v.copy(), self.x.copy())


@dataclass(frozen=True)
class Problem:
    """Data for ``min f1(D x) + f2(x)``.

    ``beta`` is the cocoercivity constant of ``grad f2`` (the reciprocal of
    its Lipschitz constant) and ``lambda_max_ddt`` caches a safe
    over-estimate of the largest eigenvalue of ``D D^T``; both drive the
    admissible stepsize ranges.
    """

    f1: object
    f2: object
    D: LinearOp
    beta: float
    lambda_max_ddt: float

    def objective(self, x):
        return self.f1.value(self.D.forward(x)) + self.f2.value(x)

    def zeros(self):
        return PDState(np.zeros(self.D.out_dim), np.zeros(self.D.in_dim))

    @property
    def lambda_hi(self):
        """Closed upper end of the admissible dual stepsize range."""
        if self.lambda_max_ddt == 0.0:
            return math.inf
        return 1.0 / self.lambda_max_ddt


def make_problem(f1, f2, D, power_seed=0):
    """Assemble a :class:`Problem`, caching the spectral bound of ``D D^T``.

    Operators carrying an exact spectral bound use it; otherwise the
    power-iteration estimate is inflated by ``1 + POWER_TOL`` so that
    stepsizes chosen as ``1 / lambda_max_ddt`` never exceed the theoretical
    bound through estimation error.
    """
    if f1.dim != D.out_dim:
        raise ValueError(f"f1 acts on R^{f1.dim} but D maps into R^{D.out_dim}")
    if f2.dim != D.in_dim:
        raise ValueError(f"f2 acts on R^{f2.dim} but D maps from R^{D.in_dim}")
    if f2.lipschitz <= 0:
        raise ValueError("f2 must have a positive Lipschitz constant")
    if D.norm_sq_hint is not None:
        lam_max = float(D.norm_sq_hint)
    else:
        lam_max = op_norm_sq(D, tol=POWER_TOL, seed=power_seed) * (1.0 + POWER_TOL)
    return Problem(f1=f1, f2=f2, D=D, beta=1.0 / f2.lipschitz, lambda_max_ddt=lam_max)


@dataclass(frozen=True)
class Iterate:
    """The primal iterate ``x`` with ``value = f2(x)`` and ``grad = grad f2(x)``.

    The fixed-point driver evaluates ``f2`` once per iterate and hands this
    record to the schedule sources and to the next step, so neither repeats
    the operator calls behind ``f2``.
    """

    x: np.ndarray
    value: float
    grad: np.ndarray

    @classmethod
    def at(cls, f2, x):
        """Evaluate ``f2`` and its gradient at ``x`` in one pass."""
        value, grad = f2.value_and_grad(x)
        return cls(x, value, grad)


@dataclass(frozen=True)
class Schedule:
    """Per-iteration parameter sources ``(n, it) -> value`` for the solvers.

    ``it`` is the :class:`Iterate` the n-th step starts from.
    """

    gamma: Callable
    lam: Callable
    alpha: Callable


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the relative state change drops below ``tol`` or at ``max_iter``.

    ``tol = 0`` disables the tolerance test, running the budget in full
    (useful for fixed-length traces).
    """

    tol: float = 1e-8
    max_iter: int = 10000


@dataclass
class RunTrace:
    """Per-iteration record of a solver run.

    For the fixed-point family, ``residuals[k]`` is the fixed-point
    residual of the iterate the k-th step started from, measured in the
    lambda-weighted product norm with weight ``lambda_ref``; the comparison
    solvers record their per-step state change there instead. ``iterates``
    (including the starting state) is populated only when requested.
    ``snr``/``relerr`` hold NaN when no ground-truth image was supplied.
    ``stop_reason`` is ``"converged"`` (the tolerance test passed),
    ``"budget"`` (``max_iter`` steps ran) or ``"diverged"`` (a step's
    change came out non-finite; that step is the last one recorded).
    """

    lambda_ref: float
    converged: bool
    n_iter: int
    iters: np.ndarray
    gammas: np.ndarray
    lams: np.ndarray
    alphas: np.ndarray
    objectives: np.ndarray
    residuals: np.ndarray
    dist_ref: np.ndarray
    snrs: np.ndarray
    relerrs: np.ndarray
    wall_ms: np.ndarray
    iterates: Optional[list] = None
    inner_iters: Optional[np.ndarray] = None
    stop_reason: str = "budget"


def mann_combine(alpha, a, b):
    """Convex combination ``alpha * a + (1 - alpha) * b`` used by the relaxed step."""
    return alpha * a + (1.0 - alpha) * b


def _lnorm(v, x, lam):
    return math.sqrt(float(x @ x) + lam * float(v @ v))


def _check_gamma(g, beta, n):
    eps = 1e-12 * beta
    if not (eps < g < 2.0 * beta - eps):
        raise ValueError(f"gamma={g} out of range (0, {2.0 * beta}) at iteration {n}")


def _check_lambda(l, lam_hi, n):
    eps = 0.0 if math.isinf(lam_hi) else 1e-12 * lam_hi
    if not (eps < l) or l > lam_hi:
        raise ValueError(f"lambda={l} out of range (0, {lam_hi}] at iteration {n}")


def _check_alpha(a, n):
    if not (0.0 <= a < 1.0):
        raise ValueError(f"alpha={a} out of range [0, 1) at iteration {n}")


def _dual_step(f1, t, l, Dz, v, DDt_v):
    """The dual update ``v' = (I - prox_{t f1})(D z + (v - l D D^T v))``.

    Takes ``Dz = D z`` and ``DDt_v = D D^T v`` (for ``ifp2o``, the product
    with its ``D Q^{-1} D^T``) and works in one new array, which it returns;
    every sum rounds as the expression above does. ``I - prox_{t f1}`` is
    ``f1.conj_proj``, the projection onto ``t * dom f1*`` done in place,
    when ``f1`` has one, and ``w - f1.prox(t, w)`` otherwise.
    """
    w = np.multiply(DDt_v, l)
    np.subtract(v, w, out=w)
    np.add(Dz, w, out=w)
    if f1.conj_proj is not None:
        return f1.conj_proj(t, w)
    w -= f1.prox(t, w)
    return w


def _tentative(p, g, l, v, x, grad, Dt_v, inner_stop=None, kappa=0.0):
    """A fixed-point step from (v, x) at stepsizes (g, l).

    The dual update runs up to ``inner_stop.max_iter`` dual steps from
    ``v``, each relaxed by ``kappa``, and ends early once a step's change
    relative to ``max(1, ||v_i||)`` falls to ``inner_stop.tol``; with no
    ``inner_stop`` it is one unrelaxed dual step, which makes this the
    operator ``T``. Takes ``Dt_v = D^T v`` and returns ``(v', x', D^T v',
    k)`` with ``k`` the number of dual steps taken, so a caller stepping on
    from ``v'`` need not apply ``D^T`` to it again.
    """
    budget, tol = (1, 0.0) if inner_stop is None else (inner_stop.max_iter, inner_stop.tol)
    z = x - g * grad
    Dz = p.D.forward(z)
    k = 0
    for k in range(1, budget + 1):
        Hv = _dual_step(p.f1, g / l, l, Dz, v, p.D.forward(Dt_v))
        v_new = Hv if kappa == 0.0 else mann_combine(kappa, v, Hv)
        Dt_v = p.D.adjoint(v_new)
        done = tol > 0.0 and (float(np.linalg.norm(v_new - v))
                              / max(1.0, float(np.linalg.norm(v))) <= tol)
        v = v_new
        if done:
            break
    z -= l * Dt_v
    return v, z, Dt_v, k


def _const(value):
    value = float(value)
    return lambda n, it: value


def apply_T(p, gamma, lam, u):
    """Apply the fixed-point operator once at constant stepsizes.

    The dual component is the shrinkage residue of the forward-stepped
    image of the state; the primal component is the forward step corrected
    by the adjoint of the new dual. Parameters outside the admissible
    ranges raise ``ValueError``.
    """
    return apply_Tn(p, Schedule(_const(gamma), _const(lam), None), 0, u)


def apply_Tn(p, sched, n, u):
    """Apply the fixed-point operator with stepsizes drawn at index ``n``."""
    it = Iterate.at(p.f2, u.x)
    g = float(sched.gamma(n, it))
    l = float(sched.lam(n, it))
    _check_gamma(g, p.beta, n)
    _check_lambda(l, p.lambda_hi, n)
    vt, xt, _, _ = _tentative(p, g, l, u.v, u.x, it.grad, p.D.adjoint(u.v))
    return PDState(vt, xt)


@dataclass
class _Row:
    """What one solver step hands the driver.

    ``(v, x)`` is the new state: ``x`` feeds SNR/RelErr, and both feed
    ``dist_ref`` and the stored iterates. ``obj`` and ``res`` fill the
    objective and residual columns, ``step / denom`` is the relative change
    the stop test reads, and ``g``, ``l``, ``a`` and ``inner`` fill the
    gamma, lambda, alpha and inner-iteration columns.
    """

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


def _drive(step, stop, lam_ref, u0, x_true=None, ref=None, record_iterates=False,
           inner=False):
    """The one iteration loop of every solver: ``step(n) -> _Row``, recorded.

    Stops with reason "converged" when ``step / denom`` falls to
    ``stop.tol``, "diverged" when a step's change is not finite, and
    "budget" after ``stop.max_iter`` steps. ``u0`` is the starting state
    stored with ``record_iterates``, ``lam_ref`` weights ``dist_ref`` (the
    distance to ``ref``), and ``inner`` asks for the ``inner_iters`` column.
    """
    stop = StoppingRule() if stop is None else stop
    cols = {k: [] for k in ("g", "l", "a", "obj", "res", "inner", "dref", "snr", "rel", "wall")}
    iterates = [u0.copy()] if record_iterates else None
    # the caller's starting arrays must not outlive its first step
    del u0
    reason = "budget"
    t0 = time.perf_counter()
    for n in range(stop.max_iter):
        row = step(n)
        for k in ("g", "l", "a", "obj", "res", "inner"):
            cols[k].append(getattr(row, k))
        cols["dref"].append(
            _lnorm(row.v - ref.v, row.x - ref.x, lam_ref) if ref is not None else math.nan
        )
        rel, snr_db = (math.nan,) * 2 if x_true is None else diagnostics.rel_err_snr(row.x, x_true)
        cols["rel"].append(rel)
        cols["snr"].append(snr_db)
        cols["wall"].append((time.perf_counter() - t0) * 1e3)
        if record_iterates:
            iterates.append(PDState(row.v.copy(), row.x.copy()))
        if not math.isfinite(row.step):
            reason = "diverged"
            break
        if stop.tol > 0.0 and row.step / row.denom <= stop.tol:
            reason = "converged"
            break
    k = len(cols["obj"])
    return RunTrace(
        lambda_ref=lam_ref,
        converged=reason == "converged",
        n_iter=k,
        iters=np.arange(1, k + 1, dtype=np.int64),
        gammas=np.array(cols["g"]),
        lams=np.array(cols["l"]),
        alphas=np.array(cols["a"]),
        objectives=np.array(cols["obj"]),
        residuals=np.array(cols["res"]),
        dist_ref=np.array(cols["dref"]),
        snrs=np.array(cols["snr"]),
        relerrs=np.array(cols["rel"]),
        wall_ms=np.array(cols["wall"]),
        iterates=iterates,
        inner_iters=np.array(cols["inner"], dtype=np.int64) if inner else None,
        stop_reason=reason,
    )


def _run_kernel(p, gamma_src, lam_src, alpha_src, u0, stop, ref=None, x_true=None,
                record_iterates=False, inner_stop=None, kappa=0.0, warm_start=True):
    """Shared step of the fixed-point family (plain, relaxed, dynamic, inner loop).

    Each quantity is computed once: ``f2`` data of every iterate comes from
    one ``f2.value_and_grad`` call that feeds both the trace's objective
    and the next step, and an unrelaxed step's ``D^T v'`` is the next
    step's ``D^T v``. A step thus applies ``A``, ``A^T`` and ``D^T`` once
    each (a relaxed step applies ``D^T`` a second time, to the relaxed
    dual), plus ``D`` three times. The residual column holds the unrelaxed
    step's change; the stop test reads the relaxed one.

    With ``inner_stop`` (``pfbs_fp2o``), the dual update is the inner loop
    of :func:`_tentative`, relaxed by ``kappa`` and started from ``v``
    (``warm_start``) or from zero, and the trace records ``kappa`` as alpha
    and the inner-iteration counts. A step with ``k`` inner steps applies
    ``D`` ``k + 2`` times and ``D^T`` ``k`` times; a cold start needs no
    ``D^T v``.
    """
    u0 = p.zeros() if u0 is None else u0
    v = np.array(u0.v, dtype=np.float64)
    it = Iterate.at(p.f2, np.array(u0.x, dtype=np.float64))
    Dt_v = None
    lam_ref = float(lam_src(0, it))

    def step(n):
        nonlocal v, it, Dt_v
        x = it.x
        g = float(gamma_src(n, it))
        l = float(lam_src(n, it))
        a = float(alpha_src(n, it)) if alpha_src is not None else 0.0
        _check_gamma(g, p.beta, n)
        _check_lambda(l, p.lambda_hi, n)
        _check_alpha(a, n)
        if warm_start and Dt_v is None:
            Dt_v = p.D.adjoint(v)
        # D^T 0 = 0, so the cold start needs no operator call
        v0, Dt_v0 = (v, Dt_v) if warm_start else (np.zeros_like(v), np.zeros_like(x))
        vt, xt, Dt_vt, k = _tentative(p, g, l, v0, x, it.grad, Dt_v0, inner_stop, kappa)
        res = _lnorm(vt - v, xt - x, lam_ref)
        if a == 0.0:
            v_new, x_new, Dt_v = vt, xt, Dt_vt
            change = res
        else:
            v_new = mann_combine(a, v, vt)
            x_new = mann_combine(a, x, xt)
            Dt_v = None
            change = _lnorm(v_new - v, x_new - x, lam_ref)
        denom = max(1.0, _lnorm(v, x, lam_ref))
        v, it = v_new, Iterate.at(p.f2, x_new)
        # summed in the order of Problem.objective, so the rounding matches
        obj = p.f1.value(p.D.forward(x_new)) + it.value
        return _Row(v_new, x_new, obj, res, change, denom, g=g, l=l,
                    a=a if inner_stop is None else kappa, inner=k)

    trace = _drive(step, stop, lam_ref, PDState(v, it.x), x_true, ref, record_iterates,
                   inner=inner_stop is not None)
    return PDState(v, it.x), trace


def pdfp2o(p, gamma, lam, u0=None, stop=None, ref=None, x_true=None, record_iterates=False):
    """Fixed-point iteration with constant stepsizes.

    Iterates ``u_{n+1} = T(u_n)`` where ``T`` combines one gradient step on
    ``f2``, one shrinkage on the dual variable, and the dual correction of
    the primal. Requires ``0 < gamma < 2 beta`` and
    ``0 < lam <= 1 / lambda_max(D D^T)``.

    Returns
    -------
    (PDState, RunTrace)
        The final state and the per-iteration trace, whose ``stop_reason``
        tells a converged run from one that ran out of budget or diverged.
    """
    return _run_kernel(p, _const(gamma), _const(lam), None, u0, stop,
                       ref=ref, x_true=x_true, record_iterates=record_iterates)


def pdfp2o_kappa(p, gamma, lam, kappa, u0=None, stop=None, ref=None, x_true=None,
                 record_iterates=False):
    """Relaxed fixed-point iteration ``u_{n+1} = kappa u_n + (1 - kappa) T(u_n)``.

    ``kappa = 0`` reproduces :func:`pdfp2o` exactly.
    """
    _check_alpha(kappa, 0)
    return _run_kernel(p, _const(gamma), _const(lam), _const(kappa), u0, stop,
                       ref=ref, x_true=x_true, record_iterates=record_iterates)


def pdfp2o_ds(p, sched, u0=None, stop=None, ref=None, x_true=None, record_iterates=False):
    """Fixed-point iteration with dynamic stepsizes drawn from ``sched``.

    Each iteration performs::

        z   = x - gamma_n * grad f2(x)
        v'  = (I - prox_{(gamma_n/lambda_n) f1})(D z + (I - lambda_n D D^T) v)
        x'  = z - lambda_n * D^T v'

    A constant schedule reproduces :func:`pdfp2o` exactly.
    """
    return _run_kernel(p, sched.gamma, sched.lam, None, u0, stop,
                       ref=ref, x_true=x_true, record_iterates=record_iterates)


def pdfp2o_dsn(p, sched, u0=None, stop=None, ref=None, x_true=None, record_iterates=False):
    """Relaxed (Mann) iteration over the dynamic-stepsize operator.

    The update is the convex combination ``alpha_n u_n + (1 - alpha_n) T_n(u_n)``
    with all three parameter sequences drawn from ``sched``. ``alpha_n = 0``
    reproduces :func:`pdfp2o_ds` exactly.
    """
    return _run_kernel(p, sched.gamma, sched.lam, sched.alpha, u0, stop,
                       ref=ref, x_true=x_true, record_iterates=record_iterates)


def pfbs_fp2o(p, gamma, lam, kappa, inner_stop, u0=None, stop=None, ref=None,
              x_true=None, record_iterates=False, warm_start=True):
    """Forward step plus an inner fixed-point loop for the implicit prox.

    After the forward step ``z = x - gamma * grad f2(x)``, the dual variable
    is iterated to (approximate) convergence of::

        H(v) = (I - prox_{(gamma/lam) f1})(D z + (I - lam D D^T) v)

    relaxed by ``kappa``, and the primal update is ``x' = z - lam D^T v*``.
    The trace records the inner-iteration count per outer step; with a
    single warm-started inner iteration and ``kappa = 0`` the method
    coincides with :func:`pdfp2o` step for step, since both take the same
    dual step.

    Each inner iterate's ``D^T v_i`` serves the next inner step, the primal
    update and the next warm start, and ``f2`` is evaluated once per outer
    step. An outer step with ``k`` inner steps thus applies ``A`` and
    ``A^T`` once each, ``D`` ``k + 2`` times and ``D^T`` ``k`` times; a
    warm-started run adds one ``D^T`` at its start.
    """
    _check_alpha(kappa, 0)
    return _run_kernel(p, _const(gamma), _const(lam), None, u0, stop, ref=ref, x_true=x_true,
                       record_iterates=record_iterates, inner_stop=inner_stop, kappa=kappa,
                       warm_start=warm_start)


def ifp2o(Q, b, f1, D, lam, kappa, stop=None, v0=None):
    """Fixed-point scheme for ``min f1(D x) + 0.5 x^T Q x - b^T x`` with dense SPD ``Q``.

    Iterates ``v_{n+1} = kappa v_n + (1 - kappa) H(v_n)`` with
    ``H(v) = (I - prox_{f1/lam})(D Q^{-1} b + (I - lam D Q^{-1} D^T) v)``
    and returns ``x* = Q^{-1}(b - lam D^T v*)``. Requires
    ``0 < lam <= 2 / lambda_max(D Q^{-1} D^T)`` and ``kappa`` in (0, 1).
    """
    Q = np.asarray(Q, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = Q.shape[0]
    if Q.shape != (n, n) or b.shape != (n,):
        raise ValueError("Q must be square and b must match its size")
    if not np.allclose(Q, Q.T, rtol=1e-10, atol=1e-12):
        raise ValueError("Q must be symmetric")
    try:
        cho = scipy.linalg.cho_factor(Q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be symmetric positive definite") from exc
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    solve = lambda rhs: scipy.linalg.cho_solve(cho, rhs)
    K = LinearOp(
        in_dim=D.out_dim,
        out_dim=D.out_dim,
        forward=lambda w: D.forward(solve(D.adjoint(w))),
        adjoint=lambda w: D.forward(solve(D.adjoint(w))),
    )
    lam_max_K = math.sqrt(op_norm_sq(K)) * (1.0 + 1e-6)
    hi = math.inf if lam_max_K == 0.0 else 2.0 / lam_max_K
    if not (0.0 < lam <= hi):
        raise ValueError(f"lam={lam} out of range (0, {hi}]")
    c = solve(b)
    Dc = D.forward(c)
    v = np.zeros(D.out_dim) if v0 is None else np.array(v0, dtype=np.float64)

    def x_of(vv):
        return solve(b - lam * D.adjoint(vv))

    def obj(xx):
        return f1.value(D.forward(xx)) + 0.5 * float(xx @ (Q @ xx)) - float(b @ xx)

    def step(n):
        nonlocal v
        Hv = _dual_step(f1, 1.0 / lam, lam, Dc, v, K.forward(v))
        v_new = mann_combine(kappa, v, Hv)
        change = float(np.linalg.norm(v_new - v))
        denom = max(1.0, float(np.linalg.norm(v)))
        res = float(np.linalg.norm(Hv - v))
        v, x = v_new, x_of(v_new)
        return _Row(v, x, obj(x), res, change, denom, l=lam, a=kappa)

    trace = _drive(step, stop, lam, None)
    return x_of(v), trace


def _as_source(value):
    if callable(value):
        return value
    value = float(value)
    return lambda n: value


def _quadratic_resolvent(f2, tau, w, x0, tol=1e-10):
    """Solve ``x + tau * grad f2(x) = w`` for a quadratic ``f2``."""
    if not isinstance(f2, QuadraticFn):
        raise UnsupportedProblemError(
            "the primal resolvent is only available for quadratic data terms"
        )
    A, b = f2.A, f2.b
    if A.tag == "identity":
        return (w + tau * b) / (1.0 + tau)
    # imported here: scipy.sparse.linalg adds about 2 MB to every process
    from scipy.sparse.linalg import LinearOperator, cg

    rhs = w + tau * A.adjoint(b)
    M = LinearOperator((A.in_dim, A.in_dim), matvec=lambda y: y + tau * A.adjoint(A.forward(y)),
                       dtype=np.float64)
    return cg(M, rhs, x0=x0, rtol=tol, maxiter=1000)[0]


def chambolle_pock(p, sigma_sched, tau_sched, theta, state0=None, stop=None,
                   ref=None, x_true=None, record_iterates=False):
    """Primal-dual hybrid gradient scheme on the saddle form of the problem.

    Updates, with ``sigma_n``/``tau_n`` drawn per iteration::

        vbar' = prox_{sigma_n f1*}(vbar + sigma_n D y)
        x'    = (I + tau_n grad f2)^{-1}(x - tau_n D^T vbar')
        y'    = x' + theta (x' - x)

    ``theta = 0`` degenerates the extrapolation (the classical
    Arrow-Hurwicz-Uzawa update). The primal resolvent is solved in closed
    form when the data operator is the identity and by conjugate gradient
    (relative residual 1e-10) for general quadratic terms; other smooth
    terms raise :class:`UnsupportedProblemError`.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    sigma_src = _as_source(sigma_sched)
    tau_src = _as_source(tau_sched)
    state0 = p.zeros() if state0 is None else state0
    vbar = np.array(state0.v, dtype=np.float64)
    x = np.array(state0.x, dtype=np.float64)
    y = x.copy()
    lam_ref = float(sigma_src(0)) * float(tau_src(0))
    if lam_ref <= 0:
        raise ValueError("sigma_0 * tau_0 must be positive")

    def step(n):
        nonlocal vbar, x, y
        sig = float(sigma_src(n))
        tau = float(tau_src(n))
        prod = sig * tau
        hi = p.lambda_hi
        if not (0.0 < prod) or (not math.isinf(hi) and prod >= hi):
            raise ValueError(f"sigma*tau={prod} out of range (0, {hi}) at iteration {n}")
        vbar_new = conjugate_prox(p.f1, sig, vbar + sig * p.D.forward(y))
        x_new = _quadratic_resolvent(p.f2, tau, x - tau * p.D.adjoint(vbar_new), x)
        y = x_new + theta * (x_new - x)
        change = _lnorm(vbar_new - vbar, x_new - x, lam_ref)
        denom = max(1.0, _lnorm(vbar, x, lam_ref))
        vbar, x = vbar_new, x_new
        return _Row(vbar, x, p.objective(x), change, change, denom, g=tau, l=sig, a=theta)

    trace = _drive(step, stop, lam_ref, PDState(vbar, x), x_true, ref, record_iterates)
    return PDState(vbar, x), trace


@dataclass
class SIUState:
    """State (x, d, v) of the split inexact Uzawa scheme."""

    x: np.ndarray
    d: np.ndarray
    v: np.ndarray

    def copy(self):
        return SIUState(self.x.copy(), self.d.copy(), self.v.copy())


def siu_x_update(f2, D, delta, nu, x, d, v):
    """The x-step of the split inexact Uzawa scheme for quadratic data terms."""
    if not isinstance(f2, QuadraticFn):
        raise UnsupportedProblemError("the split scheme needs a quadratic data term")
    A, b = f2.A, f2.b
    return x - delta * A.adjoint(A.forward(x) - b) - delta * nu * D.adjoint(D.forward(x) - d + v)


def ds_split_x_update(f2, D, delta, nu, x, d, v):
    """The x-step of the dynamic-stepsize method written in split (x, d, v) form.

    Differs from :func:`siu_x_update` exactly by the second-order coupling
    term ``- delta^2 nu A^T A D^T (d - D x)``.
    """
    if not isinstance(f2, QuadraticFn):
        raise UnsupportedProblemError("the split scheme needs a quadratic data term")
    A, b = f2.A, f2.b
    Dx = D.forward(x)
    base = x - delta * A.adjoint(A.forward(x) - b) - delta * nu * D.adjoint(Dx - d + v)
    return base - delta * delta * nu * A.adjoint(A.forward(D.adjoint(d - Dx)))


def siu(p, delta_sched, nu_sched, state0=None, stop=None, x_true=None):
    """Split inexact Uzawa iteration over (x, d, v) for quadratic data terms.

    Updates::

        x' = x - delta_n A^T(A x - b) - delta_n nu_n D^T(D x - d + v)
        d' = prox_{(1/nu_n) f1}(D x' + v)
        v' = v - (d' - D x')

    As the iteration converges, ``d - D x`` tends to zero. ``D x'`` feeds
    the d-update, the trace objective and the next x-update, and one
    evaluation of ``f2`` at ``x'`` the objective and the next gradient, so
    an iteration applies ``A``, ``A^T``, ``D`` and ``D^T`` once each; the
    run adds one ``A``, one ``A^T`` and one ``D`` at its start.
    """
    if not isinstance(p.f2, QuadraticFn):
        raise UnsupportedProblemError("this scheme needs a quadratic data term")
    delta_src = _as_source(delta_sched)
    nu_src = _as_source(nu_sched)
    if state0 is None:
        state0 = SIUState(
            x=np.zeros(p.D.in_dim), d=np.zeros(p.D.out_dim), v=np.zeros(p.D.out_dim)
        )
    x = np.array(state0.x, dtype=np.float64)
    d = np.array(state0.d, dtype=np.float64)
    v = np.array(state0.v, dtype=np.float64)
    it = Iterate.at(p.f2, x)
    Dx = p.D.forward(x)

    def step(n):
        nonlocal x, d, v, Dx, it
        delta = float(delta_src(n))
        nu = float(nu_src(n))
        if delta <= 0 or nu <= 0:
            raise ValueError(f"delta and nu must be positive at iteration {n}")
        x_new = x - delta * it.grad - delta * nu * p.D.adjoint(Dx - d + v)
        Dx_new = p.D.forward(x_new)
        d_new = p.f1.prox(1.0 / nu, Dx_new + v)
        v_new = v - (d_new - Dx_new)
        it = Iterate.at(p.f2, x_new)
        change = math.sqrt(
            float((x_new - x) @ (x_new - x))
            + float((d_new - d) @ (d_new - d))
            + float((v_new - v) @ (v_new - v))
        )
        denom = max(1.0, math.sqrt(float(x @ x) + float(d @ d) + float(v @ v)))
        x, d, v, Dx = x_new, d_new, v_new, Dx_new
        # summed in the order of Problem.objective, so the rounding matches
        obj = p.f1.value(Dx) + it.value
        return _Row(v, x, obj, change, change, denom, g=delta, l=nu, a=0.0)

    trace = _drive(step, stop, 1.0, None, x_true)
    return SIUState(x, d, v), trace


def saddle_step(p, gamma, lam, vbar, x, y):
    """One iteration of the dynamic-stepsize method in saddle (conjugate-prox) form.

    With ``sigma = lam/gamma`` and the scaled dual ``vbar = (lam/gamma) v``::

        vbar' = prox_{sigma f1*}(vbar + sigma D y)
        x'    = x - gamma grad f2(x) - gamma D^T vbar'
        y'    = x' - gamma grad f2(x') - gamma D^T vbar'

    Seeding ``y = x - gamma grad f2(x) - lam D^T v`` makes this reproduce
    one iteration of :func:`pdfp2o_ds` exactly (up to rounding).
    """
    sigma = lam / gamma
    vbar_new = conjugate_prox(p.f1, sigma, vbar + sigma * p.D.forward(y))
    x_new = x - gamma * p.f2.grad(x) - gamma * p.D.adjoint(vbar_new)
    y_new = x_new - gamma * p.f2.grad(x_new) - gamma * p.D.adjoint(vbar_new)
    return vbar_new, x_new, y_new
