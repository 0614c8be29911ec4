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

from . import diagnostics
from .linops import LinearOp, norm_sq_bound
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
    """Assemble a :class:`Problem`, caching ``linops.norm_sq_bound(D)`` as the
    spectral bound of ``D D^T``."""
    if f1.dim != D.out_dim:
        raise ValueError(f"f1 acts on R^{f1.dim} but D maps into R^{D.out_dim}")
    if f2.dim != D.in_dim:
        raise ValueError(f"f2 acts on R^{f2.dim} but D maps from R^{D.in_dim}")
    if f2.lipschitz <= 0:
        raise ValueError("f2 must have a positive Lipschitz constant")
    return Problem(f1=f1, f2=f2, D=D, beta=1.0 / f2.lipschitz,
                   lambda_max_ddt=norm_sq_bound(D, power_seed))


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
    (useful for fixed-length traces). A ``tol`` that is not a nonnegative
    finite number and a negative ``max_iter`` raise ``ValueError``.
    """

    tol: float = 1e-8
    max_iter: int = 10000

    def __post_init__(self):
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol={self.tol} must be a nonnegative finite number")
        if self.max_iter < 0:
            raise ValueError(f"max_iter={self.max_iter} must be nonnegative")

    def met(self, change, size):
        """The one stop test: ``change / max(1, size)`` has fallen to a positive ``tol``."""
        return self.tol > 0.0 and change / max(1.0, size) <= self.tol


@dataclass
class RunTrace:
    """Per-iteration record of a solver run; the README's "What a run
    records" gives each column per solver. ``stop_reason`` is
    ``"converged"`` (the tolerance test passed), ``"budget"`` (``max_iter``
    steps ran) or ``"diverged"`` (a step's change came out non-finite; that
    step is the last one recorded).
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


def _lnorm(v, x, lam, vv=None):
    return math.sqrt(float(x @ x) + lam * (float(v @ v) if vv is None else vv))


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


def _check_alpha_clamp(a_lo, a_hi):
    if not (0.0 < a_lo <= a_hi < 1.0):
        raise ValueError(f"alpha clamp [{a_lo}, {a_hi}] must sit strictly inside (0, 1)")


def _quadratic(f2, what):
    """``(A, b)`` of a quadratic ``f2``; otherwise an error saying ``what`` needs one."""
    if not isinstance(f2, QuadraticFn):
        raise UnsupportedProblemError(f"{what} needs a quadratic data term")
    return f2.A, f2.b


def _dual_step(f1, t, l, Dz, v, DDt_v, w=None):
    """The dual update ``v' = (I - prox_{t f1})(D z + (v - l D D^T v))``.

    Takes ``Dz = D z`` and ``DDt_v = D D^T v`` (for ``ifp2o``, the product
    with its ``D Q^{-1} D^T``) and works in ``w`` (a new array when None),
    which it returns; every sum rounds as the expression above does.
    ``I - prox_{t f1}`` is ``f1.conj_proj``, the projection onto
    ``t * dom f1*`` in place, when ``f1`` has one, else ``w - f1.prox(t, w)``.
    """
    w = np.multiply(DDt_v, l, out=w)
    np.subtract(v, w, out=w)
    np.add(Dz, w, out=w)
    if f1.conj_proj is not None:
        return f1.conj_proj(t, w)
    w -= f1.prox(t, w)
    return w


class _Workspace:
    """The arrays one run of the fixed-point kernel computes into, each made
    at first need: three "dual" buffers that dual steps fill in rotation,
    never the current ``v`` or the outer state; two "primal" ones for ``z``,
    which becomes ``x'``, never the current ``x``; one "diff" and one "tmp".
    ``dots`` is the stop test's last ``(d @ d, v @ v)``."""

    def __init__(self, p):
        self.dims = dict(dual=p.D.out_dim, diff=p.D.out_dim, primal=p.D.in_dim, tmp=p.D.in_dim)
        self.pools, self.dots = {kind: [] for kind in self.dims}, None

    def take(self, kind, *busy):
        pool = self.pools[kind]
        for a in pool:
            if all(a is not b for b in busy):
                return a
        pool.append(np.empty(self.dims[kind]))
        return pool[-1]


def _tentative(p, g, l, v, x, grad, Dt_v, inner_stop=None, kappa=0.0, warm=True, ws=None):
    """A fixed-point step from (v, x) at stepsizes (g, l).

    Up to ``inner_stop.max_iter`` dual steps from ``v`` (``warm``) or zero,
    each relaxed by ``kappa``, stop once a step's change ``d`` has
    ``inner_stop.met(sqrt(d @ d), sqrt(v_i @ v_i))``; a non-finite change
    never meets it, so the budget runs out. With no ``inner_stop``, one
    unrelaxed dual step makes this the operator ``T``.
    Takes ``Dt_v = D^T v`` (read when ``warm``) and returns
    ``(v', x', D^T v', k)``, ``k`` the dual steps taken. ``v'`` and ``x'``
    are arrays of ``ws`` (a new workspace when None), whose ``dots`` the
    stop test sets.
    """
    ws = _Workspace(p) if ws is None else ws
    budget, tol = (1, 0.0) if inner_stop is None else (inner_stop.max_iter, inner_stop.tol)
    tmp = ws.take("tmp")
    z = np.subtract(x, np.multiply(grad, g, out=tmp), out=ws.take("primal", x))
    Dz = p.D.forward(z)
    v_outer, k, ws.dots = v, 0, None
    if not warm:
        # D^T 0 = 0, so the cold start needs no operator call
        v, Dt_v = np.zeros_like(v), np.zeros_like(x)
    for k in range(1, budget + 1):
        v_new = _dual_step(p.f1, g / l, l, Dz, v, p.D.forward(Dt_v), ws.take("dual", v, v_outer))
        if kappa != 0.0:
            # mann_combine(kappa, v, v_new) in place, rounded the same way
            kv = np.multiply(v, kappa, out=ws.take("diff"))
            np.add(kv, np.multiply(v_new, 1.0 - kappa, out=v_new), out=v_new)
        Dt_v = p.D.adjoint(v_new)
        v, v_old = v_new, v
        if tol > 0.0:
            d = np.subtract(v, v_old, out=ws.take("diff"))
            ws.dots = dd, vv = float(d @ d), float(v_old @ v_old)
            if inner_stop.met(math.sqrt(dd), math.sqrt(vv)):
                break
    z -= np.multiply(Dt_v, l, out=tmp)
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
    """What one solver step hands the driver: the new state ``(v, x)``, the
    state ``change`` and the ``size`` of the state it started from, which
    the stop test reads, and the step's own :class:`RunTrace` columns; the
    driver fills the other four.
    """

    v: np.ndarray
    x: np.ndarray
    change: float
    size: float
    objectives: float
    residuals: float
    gammas: float = math.nan
    lams: float = math.nan
    alphas: float = math.nan
    inner_iters: Optional[int] = None
    dist_ref: float = math.nan
    relerrs: float = math.nan
    snrs: float = math.nan
    wall_ms: float = math.nan


def _drive(step, stop, lam_ref, u0, x_true=None, ref=None, record_iterates=False,
           inner=False):
    """The one iteration loop of every solver: ``step(n) -> _Row``, recorded.

    Stops with reason "diverged" when a step's change is not finite,
    "converged" once ``stop.met`` it, and "budget" after ``stop.max_iter``
    steps. ``u0`` is the starting state stored with ``record_iterates``,
    ``lam_ref`` weights ``dist_ref`` (the distance to ``ref``), and
    ``inner`` asks for the ``inner_iters`` column.
    """
    stop = StoppingRule() if stop is None else stop
    quality = None if x_true is None else diagnostics._quality(x_true)
    cols = {k: [] for k in ("gammas", "lams", "alphas", "objectives", "residuals", "dist_ref",
                            "relerrs", "snrs", "wall_ms") + ("inner_iters",) * inner}
    iterates = [u0.copy()] if record_iterates else None
    # the caller's starting arrays must not outlive its first step
    del u0
    reason = "budget"
    t0 = time.perf_counter()
    for n in range(stop.max_iter):
        row = step(n)
        if ref is not None:
            row.dist_ref = _lnorm(row.v - ref.v, row.x - ref.x, lam_ref)
        if quality is not None:
            row.relerrs, row.snrs = quality(row.x)
        row.wall_ms = (time.perf_counter() - t0) * 1e3
        for k, col in cols.items():
            col.append(getattr(row, k))
        if record_iterates:
            iterates.append(PDState(row.v.copy(), row.x.copy()))
        if not math.isfinite(row.change):
            reason = "diverged"
            break
        if stop.met(row.change, row.size):
            reason = "converged"
            break
    k = len(cols["objectives"])
    arrays = {name: np.array(col, dtype=np.int64 if name == "inner_iters" else None)
              for name, col in cols.items()}
    return RunTrace(lambda_ref=lam_ref, converged=reason == "converged", n_iter=k,
                    iters=np.arange(1, k + 1, dtype=np.int64), iterates=iterates,
                    stop_reason=reason, **arrays)


def _run_kernel(p, gamma_src, lam_src, alpha_src, u0, stop, ref=None, x_true=None,
                record_iterates=False, inner_stop=None, kappa=0.0, warm_start=True):
    """Shared step of the fixed-point family (plain, relaxed, dynamic, inner loop).

    Each quantity is computed once (the README's cost table counts the
    operator calls): ``f2`` data of every iterate comes from one
    ``f2.value_and_grad`` call that feeds both the trace's objective and the
    next step, and an unrelaxed step's ``D^T v'`` is the next step's
    ``D^T v``. The residual column holds the unrelaxed step's change; the
    stop test reads the relaxed one. The run's arrays come from one
    :class:`_Workspace`.

    With ``inner_stop`` (``pfbs_fp2o``), the dual update is the inner loop
    of :func:`_tentative`, relaxed by ``kappa`` and started from ``v``
    (``warm_start``) or from zero, and the trace records ``kappa`` as alpha
    and the inner-iteration counts.
    """
    u0 = p.zeros() if u0 is None else u0
    stop = StoppingRule() if stop is None else stop
    v = np.array(u0.v, dtype=np.float64)
    it = Iterate.at(p.f2, np.array(u0.x, dtype=np.float64))
    Dt_v = None
    lam_ref = float(lam_src(0, it))
    ws = _Workspace(p)

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
        vt, xt, Dt_vt, k = _tentative(p, g, l, v, x, it.grad, Dt_v, inner_stop, kappa,
                                      warm_start, ws)
        # one warm-started inner step's test already took ||vt - v||^2 and ||v||^2
        dd, vv = ws.dots if warm_start and k == 1 and ws.dots else (None, None)
        dv = None if dd is not None else np.subtract(vt, v, out=ws.take("diff"))
        res = _lnorm(dv, np.subtract(xt, x, out=ws.take("tmp")), lam_ref, dd)
        if a == 0.0:
            v_new, x_new, Dt_v, change = vt, xt, Dt_vt, res
        else:
            v_new, x_new, Dt_v = mann_combine(a, v, vt), mann_combine(a, x, xt), None
            change = _lnorm(v_new - v, x_new - x, lam_ref)
        # only the stop test reads the size, and only with a tolerance
        size = _lnorm(v, x, lam_ref, vv) if stop.tol > 0.0 else math.nan
        v, it = v_new, Iterate.at(p.f2, x_new)
        # summed in the order of Problem.objective, so the rounding matches
        obj = p.f1.value(p.D.forward(x_new)) + it.value
        return _Row(v_new, x_new, change, size, obj, res, gammas=g, lams=l,
                    alphas=a if inner_stop is None else kappa, inner_iters=k)

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
    dual step. Each inner iterate's ``D^T v_i`` serves the next inner step,
    the primal update and the next warm start.
    """
    if inner_stop is None:
        raise ValueError("pfbs_fp2o needs an inner_stop rule for its inner loop")
    if inner_stop.max_iter < 1:
        raise ValueError("pfbs_fp2o needs inner_stop.max_iter >= 1: with no inner step "
                         "the dual variable never moves and the run minimizes f2 alone")
    _check_alpha(kappa, 0)
    return _run_kernel(p, _const(gamma), _const(lam), None, u0, stop, ref=ref, x_true=x_true,
                       record_iterates=record_iterates, inner_stop=inner_stop, kappa=kappa,
                       warm_start=warm_start)


def ifp2o(Q, b, f1, D, lam, kappa, stop=None):
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
    import scipy.linalg
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
    lam_max_K = math.sqrt(norm_sq_bound(K))
    hi = math.inf if lam_max_K == 0.0 else 2.0 / lam_max_K
    if not (0.0 < lam <= hi):
        raise ValueError(f"lam={lam} out of range (0, {hi}]")
    c = solve(b)
    Dc = D.forward(c)
    v = np.zeros(D.out_dim)

    def x_of(vv):
        return solve(b - lam * D.adjoint(vv))

    def obj(xx):
        return f1.value(D.forward(xx)) + 0.5 * float(xx @ (Q @ xx)) - float(b @ xx)

    def step(n):
        nonlocal v
        Hv = _dual_step(f1, 1.0 / lam, lam, Dc, v, K.forward(v))
        v_new = mann_combine(kappa, v, Hv)
        change, size = float(np.linalg.norm(v_new - v)), float(np.linalg.norm(v))
        res = float(np.linalg.norm(Hv - v))
        v, x = v_new, x_of(v_new)
        return _Row(v, x, change, size, obj(x), res, lams=lam, alphas=kappa)

    trace = _drive(step, stop, lam, None)
    return x_of(v), trace


def _quadratic_resolvent(f2, tau, w, x0):
    """Solve ``x + tau * grad f2(x) = w`` for a quadratic ``f2``."""
    A, b = _quadratic(f2, "the primal resolvent")
    if A.tag == "identity":
        return (w + tau * b) / (1.0 + tau)
    # imported here: scipy.sparse.linalg adds about 2 MB to every process
    from scipy.sparse.linalg import LinearOperator, cg

    rhs = w + tau * A.adjoint(b)
    M = LinearOperator((A.in_dim, A.in_dim), matvec=lambda y: y + tau * A.adjoint(A.forward(y)),
                       dtype=np.float64)
    return cg(M, rhs, x0=x0, rtol=1e-10, maxiter=1000)[0]


def chambolle_pock(p, sigma, tau, theta, stop=None, ref=None, x_true=None,
                   record_iterates=False):
    """Primal-dual hybrid gradient scheme on the saddle form of the problem.

    Updates, at constant steps with ``sigma, tau > 0`` and
    ``sigma * tau < 1 / lambda_max(D D^T)``::

        vbar' = prox_{sigma f1*}(vbar + sigma D y)
        x'    = (I + tau grad f2)^{-1}(x - tau D^T vbar')
        y'    = x' + theta (x' - x)

    ``theta = 0`` degenerates the extrapolation (the classical
    Arrow-Hurwicz-Uzawa update). The primal resolvent is solved in closed
    form when the data operator is the identity and by conjugate gradient
    (relative residual 1e-10) for general quadratic terms; other smooth
    terms raise :class:`UnsupportedProblemError`.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    _quadratic(p.f2, "the primal resolvent")
    sig, tau = float(sigma), float(tau)
    lam_ref = sig * tau
    if not (sig > 0.0 and tau > 0.0 and lam_ref < p.lambda_hi):
        raise ValueError(f"sigma={sig} and tau={tau} must be positive with "
                         f"sigma*tau < {p.lambda_hi}")
    vbar, x = np.zeros(p.D.out_dim), np.zeros(p.D.in_dim)
    y = x.copy()

    def step(n):
        nonlocal vbar, x, y
        vbar_new = conjugate_prox(p.f1, sig, vbar + sig * p.D.forward(y))
        x_new = _quadratic_resolvent(p.f2, tau, x - tau * p.D.adjoint(vbar_new), x)
        y = x_new + theta * (x_new - x)
        change = _lnorm(vbar_new - vbar, x_new - x, lam_ref)
        size = _lnorm(vbar, x, lam_ref)
        vbar, x = vbar_new, x_new
        return _Row(vbar, x, change, size, p.objective(x), change, gammas=tau, lams=sig,
                    alphas=theta)

    trace = _drive(step, stop, lam_ref, PDState(vbar, x), x_true, ref, record_iterates)
    return PDState(vbar, x), trace


@dataclass
class SIUState:
    """State (x, d, v) of the split inexact Uzawa scheme."""

    x: np.ndarray
    d: np.ndarray
    v: np.ndarray


def siu_x_update(f2, D, delta, nu, x, d, v):
    """The x-step of the split inexact Uzawa scheme for quadratic data terms."""
    A, b = _quadratic(f2, "the split scheme")
    return x - delta * A.adjoint(A.forward(x) - b) - delta * nu * D.adjoint(D.forward(x) - d + v)


def ds_split_x_update(f2, D, delta, nu, x, d, v):
    """The x-step of the dynamic-stepsize method written in split (x, d, v) form.

    Differs from :func:`siu_x_update` exactly by the second-order coupling
    term ``- delta^2 nu A^T A D^T (d - D x)``.
    """
    A, b = _quadratic(f2, "the split scheme")
    Dx = D.forward(x)
    base = x - delta * A.adjoint(A.forward(x) - b) - delta * nu * D.adjoint(Dx - d + v)
    return base - delta * delta * nu * A.adjoint(A.forward(D.adjoint(d - Dx)))


def _split_norm(x, d, v):
    return math.sqrt(float(x @ x) + float(d @ d) + float(v @ v))


def siu(p, delta, nu, stop=None, x_true=None):
    """Split inexact Uzawa iteration over (x, d, v) for quadratic data terms.

    Updates, at constant steps ``nu > 0``, ``0 < delta < 1/(L + nu lambda_max(D D^T))``::

        x' = x - delta A^T(A x - b) - delta nu D^T(D x - d + v)
        d' = prox_{(1/nu) f1}(D x' + v)
        v' = v - (d' - D x')

    As the iteration converges, ``d - D x`` tends to zero. ``D x'`` feeds
    the d-update, the trace objective and the next x-update, and one
    evaluation of ``f2`` at ``x'`` the objective and the next gradient.
    """
    _quadratic(p.f2, "the split scheme")
    delta, nu = float(delta), float(nu)
    if not (delta > 0.0 and nu > 0.0):
        raise ValueError(f"delta={delta} and nu={nu} must be positive")
    bound = 1.0 / (p.f2.lipschitz + nu * p.lambda_max_ddt)
    if not delta < bound:
        raise ValueError(f"delta={delta} must be below 1/(L + nu*lambda_max(D D^T)) = {bound}")
    x, d, v = np.zeros(p.D.in_dim), np.zeros(p.D.out_dim), np.zeros(p.D.out_dim)
    it = Iterate.at(p.f2, x)
    Dx = p.D.forward(x)

    def step(n):
        nonlocal x, d, v, Dx, it
        x_new = x - delta * it.grad - delta * nu * p.D.adjoint(Dx - d + v)
        Dx_new = p.D.forward(x_new)
        d_new = p.f1.prox(1.0 / nu, Dx_new + v)
        v_new = v - (d_new - Dx_new)
        it = Iterate.at(p.f2, x_new)
        change, size = _split_norm(x_new - x, d_new - d, v_new - v), _split_norm(x, d, v)
        x, d, v, Dx = x_new, d_new, v_new, Dx_new
        # summed in the order of Problem.objective, so the rounding matches
        obj = p.f1.value(Dx) + it.value
        return _Row(v, x, change, size, obj, change, gammas=delta, lams=nu, alphas=0.0)

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
