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
import operator
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .linops import LinearOp, dot, norm, norm_sq_bound
from .prox import _quadratic, conjugate_prox
from .schedules import Iterate, Schedule, _check_alpha, _steps, constant_schedule


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


def _check_sizes(f1, name, dim, D):
    if f1.dim != D.out_dim:
        raise ValueError(f"f1 acts on R^{f1.dim} but D maps into R^{D.out_dim}")
    if dim != D.in_dim:
        raise ValueError(f"{name} acts on R^{dim} but D maps from R^{D.in_dim}")


def make_problem(f1, f2, D, power_seed=0):
    """Assemble a :class:`Problem`, caching ``linops.norm_sq_bound(D)`` as the
    spectral bound of ``D D^T``."""
    _check_sizes(f1, "f2", f2.dim, D)
    if not 0 < f2.lipschitz < math.inf:
        raise ValueError(f"f2 must have a positive Lipschitz constant that is finite, "
                         f"not {f2.lipschitz}")
    bound = norm_sq_bound(D, power_seed)
    if not 0.0 <= bound < math.inf:
        raise ValueError(f"D's spectral bound lambda_max(D D^T) must be nonnegative and "
                         f"finite, not {bound}")
    return Problem(f1=f1, f2=f2, D=D, beta=1.0 / f2.lipschitz, lambda_max_ddt=bound)


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the relative state change drops below ``tol`` or at ``max_iter``.

    ``tol = 0`` disables the tolerance test, running the budget in full
    (useful for fixed-length traces). A ``tol`` that is not a nonnegative
    finite number and a ``max_iter`` that is not a nonnegative integer raise ``ValueError``.
    """

    tol: float = 1e-8
    max_iter: int = 10000

    def __post_init__(self):
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol={self.tol} must be a nonnegative finite number")
        try:
            max_iter = operator.index(self.max_iter)  # Python and numpy integers, as range()
        except TypeError:
            max_iter = -1
        if max_iter < 0:
            raise ValueError(f"max_iter={self.max_iter!r} must be a nonnegative integer")

    def met(self, change, size):
        """The one stop test: ``change / max(1, size)`` has fallen to a positive ``tol``."""
        return self.tol > 0.0 and change / max(1.0, size) <= self.tol


@dataclass
class RunTrace:
    """Per-iteration record of a solver run, one column per field with ``"csv"``
    metadata (``trace.csv`` holds those it names, in order); the README's "What a
    run records" gives each per solver. ``stop_reason`` is ``"converged"`` (the
    tolerance test passed), ``"budget"`` (``max_iter`` steps ran) or ``"diverged"``
    (a step's change came out non-finite; that step is the last one recorded).
    """

    lambda_ref: float
    converged: bool
    n_iter: int
    iters: np.ndarray = field(metadata={"csv": "iter"})
    gammas: np.ndarray = field(metadata={"csv": "gamma"})
    lams: np.ndarray = field(metadata={"csv": "lambda"})
    alphas: np.ndarray = field(metadata={"csv": "alpha"})
    objectives: np.ndarray = field(metadata={"csv": "objective"})
    residuals: np.ndarray = field(metadata={"csv": "residual"})
    snrs: np.ndarray = field(metadata={"csv": "snr"})
    relerrs: np.ndarray = field(metadata={"csv": "relerr"})
    wall_ms: np.ndarray = field(metadata={"csv": "wall_ms"})
    iterates: Optional[list] = None
    inner_iters: Optional[np.ndarray] = field(default=None, metadata={"csv": None})
    stop_reason: str = "budget"


def _mann(alpha, a, b, scratch, out=None):
    """The one combination ``alpha*a + (1 - alpha)*b`` of iterates or their ``D^T``, into ``out``
    (``b`` when None), ``alpha * a`` in ``scratch``."""
    out = b if out is None else out
    return np.add(np.multiply(a, alpha, out=scratch), np.multiply(b, 1.0 - alpha, out=out), out=out)


def _lnorm(v, x, lam, vv=None):
    return math.sqrt(dot(x, x) + lam * (dot(v, v) if vv is None else vv))


def _quality(x_true, dim=None):
    """``x -> rel_err_snr(x, x_true)``, with ``||x_true||`` taken once, here; None for a None
    ``x_true``. With ``dim`` (a run's), an ``x_true`` not of shape ``(dim,)`` raises first."""
    if x_true is None:
        return None
    x_true = np.asarray(x_true, dtype=np.float64)
    if dim is not None and x_true.shape != (dim,):
        raise ValueError(f"x_true must have shape ({dim},), not {x_true.shape}")
    nt = norm(x_true)
    if nt == 0.0:
        raise ValueError("x_true must be nonzero")

    def quality(x):
        if np.shape(x) != x_true.shape:
            raise ValueError("images must have the same shape")
        nd = norm(np.subtract(x, x_true))
        ratio = math.inf if nd == 0.0 else nt / nd
        # the ratio is 0 once ||x - x_true|| overflows, on a diverging run
        snr_db = -math.inf if ratio == 0.0 else 20.0 * math.log10(ratio)
        return (nd * nd) / (nt * nt), snr_db

    return quality


def _dual_step(f1, t, Dy, v, w=None):
    """The dual update ``v' = (I - prox_{t f1})(D y + v)``, with
    ``y = z - l D^T v`` (for ``ifp2o``, ``y = x(v)``): in exact arithmetic
    the paper's ``D z + (v - l D D^T v)``, with one ``D`` where that has two.

    Takes ``Dy = D y`` and works in ``w`` (a new array when None), which it
    returns. ``I - prox_{t f1}`` is ``f1.conj_proj``, the projection onto
    ``t * dom f1*`` in place, when ``f1`` has one, else ``w - f1.prox(t, w)``.
    """
    w = np.add(Dy, v, out=w)
    if f1.conj_proj is not None:
        return f1.conj_proj(t, w)
    w -= f1.prox(t, w)
    return w


class _Workspace:
    """The arrays one run of the fixed-point kernel computes into, each made at first need:
    two "primal" ones for ``z``, which becomes ``x'``, never the current ``x``; on relaxed
    runs two "adj" ones for the carried ``D^T v``, never the current one; one dual "diff";
    one "tmp". ``dots`` is the outer step's ``(||v' - v||^2, ||v||^2)`` or None."""

    def __init__(self, p):
        self.dims = dict(diff=p.D.out_dim, primal=p.D.in_dim, tmp=p.D.in_dim, adj=p.D.in_dim)
        self.pools, self.dots = {kind: [] for kind in self.dims}, None

    def take(self, kind, *busy):
        pool = self.pools[kind]
        for a in pool:
            if all(a is not b for b in busy):
                return a
        pool.append(np.empty(self.dims[kind]))
        return pool[-1]


def _tentative(p, g, l, v, x, grad, Dt_v=None, inner_stop=None, kappa=0.0, warm=True, ws=None):
    """A fixed-point step from (v, x) at stepsizes (g, l).

    Up to ``inner_stop.max_iter`` dual steps from ``v`` (``warm``) or zero,
    each relaxed by ``kappa``, stop once a step's change ``d`` has
    ``inner_stop.met(norm(d), norm(v_i))``; a non-finite change
    never meets it, so the budget runs out. With no ``inner_stop``, one
    unrelaxed dual step makes this the operator ``T``.
    Takes ``Dt_v = D^T v`` (when ``warm``; None applies ``D^T`` here) and returns
    ``(v', x', D^T v', k)``, ``k`` the dual steps taken. ``x'`` is an array
    of ``ws`` (a new workspace when None); ``v'`` is the array ``D`` returned
    for the last dual step, or a new one where that is ``y`` or ``v`` (or a
    view of either), and an inner step's change goes over the iterate it
    retires unless that is the ``v`` passed in. ``ws.dots`` keeps the
    stop test's dots when they are the whole step's, on a warm first step.
    """
    ws = _Workspace(p) if ws is None else ws
    budget, tol = (1, 0.0) if inner_stop is None else (inner_stop.max_iter, inner_stop.tol)
    v_outer, k, ws.dots = v, 0, None
    if not warm:
        # D^T 0 = 0, so the cold start's first y is z, with no operator call
        v, Dt_v = np.zeros_like(v), None
    elif Dt_v is None:
        Dt_v = p.D.adjoint(v)
    tmp = ws.take("tmp")
    z = np.subtract(x, np.multiply(grad, g, out=tmp), out=ws.take("primal", x))
    for k in range(1, budget + 1):
        y = z if Dt_v is None else np.subtract(z, np.multiply(Dt_v, l, out=tmp), out=tmp)
        Dy = p.D.forward(y)
        # D y + v goes into D's output, unless that shares memory with y or v (D may hand back y)
        w = None if np.may_share_memory(Dy, y) or np.may_share_memory(Dy, v) else Dy
        v_new = _dual_step(p.f1, g / l, Dy, v, w)
        if kappa != 0.0:
            _mann(kappa, v, v_new, ws.take("diff"))
        Dt_v = p.D.adjoint(v_new)
        v, v_old = v_new, v
        if tol > 0.0:
            vv = dot(v_old, v_old)
            # the change goes over the retired iterate, unless that is the caller's v
            d = np.subtract(v, v_old, out=ws.take("diff") if v_old is v_outer else v_old)
            dd = dot(d, d)
            ws.dots = (dd, vv) if warm and k == 1 else None
            if inner_stop.met(math.sqrt(dd), math.sqrt(vv)):
                break
    z -= np.multiply(Dt_v, l, out=tmp)
    return v, z, Dt_v, k


def apply_T(p, gamma, lam, u):
    """Apply the fixed-point operator once at constant stepsizes.

    The dual component is the shrinkage residue of the forward-stepped
    image of the state; the primal component is the forward step corrected
    by the adjoint of the new dual. Parameters outside the admissible
    ranges raise ``ValueError``.
    """
    return apply_Tn(p, constant_schedule(gamma, lam), 0, u)


def apply_Tn(p, sched, n, u):
    """Apply the unrelaxed fixed-point operator at the steps :func:`_steps` draws at ``n``."""
    it = Iterate.at(p.f2, u.x)
    g, l, _ = _steps(p, sched, n, it)
    vt, xt, _, _ = _tentative(p, g, l, u.v, u.x, it.grad)
    return PDState(vt, xt)


def _drive(step, stop, lam_ref, u0, quality=None, record_iterates=False, inner=False):
    """The one iteration loop of every solver, recorded; ``u0`` is stored with ``record_iterates``.

    ``step(n)`` returns the new ``(v, x)``, the state ``change`` and the ``size`` of the state
    it started from, which the stop test reads, and a dict of the :class:`RunTrace` columns it
    fills (another name raises ``TypeError``); the driver adds ``relerrs`` and ``snrs`` (from
    ``quality``, the :func:`_quality` of the run's ``x_true``) and ``wall_ms``, NaN for the
    rest, all float64, and keeps ``inner_iters`` (int64) only when ``inner``. Stops as
    "diverged" when a change is not finite, "converged" once ``stop.met`` it, and "budget"
    after ``stop.max_iter`` steps.
    """
    stop = StoppingRule() if stop is None else stop
    names = {f.name for f in fields(RunTrace) if "csv" in f.metadata} - {"iters"}
    cols = {name: [] for name in names if inner or name != "inner_iters"}
    iterates = [u0.copy()] if record_iterates else None
    # the caller's starting arrays must not outlive its first step
    del u0
    reason = "budget"
    t0 = time.perf_counter()
    for n in range(stop.max_iter):
        v, x, change, size, row = step(n)
        if not row.keys() <= names:
            raise TypeError(f"no RunTrace column {sorted(row.keys() - names)}")
        if quality is not None:
            row["relerrs"], row["snrs"] = quality(x)
        row["wall_ms"] = (time.perf_counter() - t0) * 1e3
        for name, col in cols.items():
            col.append(row.get(name, math.nan))
        if record_iterates:
            iterates.append(PDState(v.copy(), x.copy()))
        if not math.isfinite(change):
            reason = "diverged"
            break
        if stop.met(change, size):
            reason = "converged"
            break
    k = len(cols["wall_ms"])
    arrays = {name: np.array(col, dtype=np.int64 if name == "inner_iters" else np.float64)
              for name, col in cols.items()}
    return RunTrace(lambda_ref=lam_ref, converged=reason == "converged", n_iter=k,
                    iters=np.arange(1, k + 1, dtype=np.int64), iterates=iterates,
                    stop_reason=reason, **arrays)


def _run_kernel(p, sched, u0, stop, x_true=None, record_iterates=False, inner_stop=None,
                kappa=0.0, warm_start=True):
    """Shared step of the fixed-point family (plain, relaxed, dynamic, inner loop).

    Each quantity is computed once (the README's cost table counts the
    operator calls): one ``f2.value_and_grad`` per iterate feeds the trace's
    objective and the next step, and ``D^T v``, applied once at a warm start, is
    carried from step to step. The residual column holds the unrelaxed change;
    the stop test reads the relaxed one, ``1 - alpha`` times it. The run's primal arrays come
    from one :class:`_Workspace`, its dual iterates from ``D`` (see :func:`_tentative`); a
    relaxed step writes ``alpha u + (1 - alpha) T(u)`` over ``T(u)`` with :func:`_mann`, as
    the inner ``kappa`` step does, and ``D^T v'`` from the two ``D^T``.

    With ``inner_stop`` (``pfbs_fp2o``), the dual update is the inner loop
    of :func:`_tentative`, relaxed by ``kappa`` and started from ``v``
    (``warm_start``) or from zero, and the trace records ``kappa`` as alpha
    and the inner-iteration counts.
    """
    quality = _quality(x_true, p.D.in_dim)
    u0 = p.zeros() if u0 is None else u0
    stop = StoppingRule() if stop is None else stop
    v = np.array(u0.v, dtype=np.float64)
    it = Iterate.at(p.f2, np.array(u0.x, dtype=np.float64))
    Dt_v = p.D.adjoint(v) if warm_start else None
    lam_ref = float(sched.lam(0, it))
    ws = _Workspace(p)

    def step(n):
        nonlocal v, it, Dt_v
        x = it.x
        g, l, a = _steps(p, sched, n, it)
        vt, xt, Dt_vt, k = _tentative(p, g, l, v, x, it.grad, Dt_v, inner_stop, kappa,
                                      warm_start, ws)
        dd, vv = ws.dots or (None, None)
        dv = None if dd is not None else np.subtract(vt, v, out=ws.take("diff"))
        res = _lnorm(dv, np.subtract(xt, x, out=ws.take("tmp")), lam_ref, dd)
        if a == 0.0:
            v_new, x_new, Dt_v, change = vt, xt, Dt_vt, res
        else:  # relax in place, D^T v' first (D^T may hand back vt): u' - u = (1 - a)(T(u) - u)
            Dt_v = _mann(a, Dt_v, Dt_vt, ws.take("tmp"), ws.take("adj", Dt_v))
            v_new, x_new = _mann(a, v, vt, ws.take("diff")), _mann(a, x, xt, ws.take("tmp"))
            change = (1.0 - a) * res
        # only the stop test reads the size, and only with a tolerance
        size = _lnorm(v, x, lam_ref, vv) if stop.tol > 0.0 else math.nan
        v, it = v_new, Iterate.at(p.f2, x_new)
        # summed in the order of Problem.objective, so the rounding matches
        obj = p.f1.value(p.D.forward(x_new)) + it.value
        return v_new, x_new, change, size, dict(
            objectives=obj, residuals=res, gammas=g, lams=l,
            alphas=a if inner_stop is None else kappa, inner_iters=k)

    trace = _drive(step, stop, lam_ref, PDState(v, it.x), quality, record_iterates,
                   inner=inner_stop is not None)
    return PDState(v, it.x), trace


def pdfp2o(p, gamma, lam, u0=None, stop=None, x_true=None, record_iterates=False):
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
    return _run_kernel(p, constant_schedule(gamma, lam), u0, stop, x_true, record_iterates)


def pdfp2o_kappa(p, gamma, lam, kappa, u0=None, stop=None, x_true=None, record_iterates=False):
    """Relaxed fixed-point iteration ``u_{n+1} = kappa u_n + (1 - kappa) T(u_n)``.

    ``kappa = 0`` reproduces :func:`pdfp2o` exactly.
    """
    _check_alpha(kappa, 0, "kappa")
    return _run_kernel(p, constant_schedule(gamma, lam, kappa), u0, stop, x_true, record_iterates)


def pdfp2o_ds(p, sched, u0=None, stop=None, x_true=None, record_iterates=False):
    """Fixed-point iteration with dynamic stepsizes drawn from ``sched``.

    Each iteration performs::

        z   = x - gamma_n * grad f2(x)
        y   = z - lambda_n * D^T v
        v'  = (I - prox_{(gamma_n/lambda_n) f1})(D y + v)
        x'  = z - lambda_n * D^T v'

    A constant schedule reproduces :func:`pdfp2o` exactly.
    """
    return _run_kernel(p, Schedule(sched.gamma, sched.lam, None), u0, stop, x_true,
                       record_iterates)


def pdfp2o_dsn(p, sched, u0=None, stop=None, x_true=None, record_iterates=False):
    """Relaxed (Mann) iteration over the dynamic-stepsize operator.

    The update is the convex combination ``alpha_n u_n + (1 - alpha_n) T_n(u_n)``
    with all three parameter sequences drawn from ``sched``. ``alpha_n = 0``
    reproduces :func:`pdfp2o_ds` exactly.
    """
    return _run_kernel(p, sched, u0, stop, x_true, record_iterates)


def pfbs_fp2o(p, gamma, lam, kappa, inner_stop, u0=None, stop=None, x_true=None,
              record_iterates=False, warm_start=True):
    """Forward step plus an inner fixed-point loop for the implicit prox.

    After the forward step ``z = x - gamma * grad f2(x)``, the dual variable
    is iterated to (approximate) convergence of::

        H(v) = (I - prox_{(gamma/lam) f1})(D (z - lam D^T v) + v)

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
    _check_alpha(kappa, 0, "kappa")
    return _run_kernel(p, constant_schedule(gamma, lam), u0, stop, x_true, record_iterates,
                       inner_stop, kappa, warm_start)


def ifp2o(Q, b, f1, D, lam, kappa, stop=None, x_true=None):
    """Fixed-point scheme for ``min f1(D x) + 0.5 x^T Q x - b^T x`` with dense SPD ``Q``.

    Iterates ``v_{n+1} = kappa v_n + (1 - kappa) H(v_n)`` with
    ``H(v) = (I - prox_{f1/lam})(D Q^{-1} b + (I - lam D Q^{-1} D^T) v)``, taken
    as ``(I - prox_{f1/lam})(D x(v) + v)`` for ``x(v) = Q^{-1}(b - lam D^T v)``,
    and returns the last ``x(v)``. Requires ``kappa`` in (0, 1) and
    ``0 < lam <= 2 / lambda_max(D Q^{-1} D^T)``, the upper end checked last.
    The trace's objective adds the constant ``0.5 b^T Q^{-1} b``, so it reads
    ``f1(D x) + 0.5 ||Q^{1/2} x - Q^{-1/2} b||^2``: with ``Q = I`` that is
    ``Problem.objective``.
    """
    Q = np.asarray(Q, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = Q.shape[0]
    if Q.shape != (n, n) or b.shape != (n,):
        raise ValueError("Q must be square and b must match its size")
    _check_sizes(f1, "Q", n, D)
    quality = _quality(x_true, D.in_dim)
    if not (0.0 < kappa < 1.0):
        raise ValueError(f"kappa={kappa} must lie in (0, 1)")
    if not (0.0 < lam < math.inf):
        raise ValueError(f"lam={lam} must be positive and finite")
    if not np.allclose(Q, Q.T, rtol=1e-10, atol=1e-12):
        raise ValueError("Q must be symmetric")
    import scipy.linalg
    try:
        cho = scipy.linalg.cho_factor(Q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be symmetric positive definite") from exc
    solve = lambda rhs: scipy.linalg.cho_solve(cho, rhs)
    apply_K = lambda w: D.forward(solve(D.adjoint(w)))  # symmetric: its own adjoint
    K = LinearOp(in_dim=D.out_dim, out_dim=D.out_dim, forward=apply_K, adjoint=apply_K)
    lam_max_K = math.sqrt(norm_sq_bound(K))
    hi = math.inf if lam_max_K == 0.0 else 2.0 / lam_max_K
    if not lam <= hi:
        raise ValueError(f"lam={lam} out of range (0, {hi}]")
    x = solve(b)
    Dx, half_bc = D.forward(x), 0.5 * dot(b, x)
    v, scratch = np.zeros(D.out_dim), np.empty(D.out_dim)

    def step(n):
        nonlocal v, x, Dx
        Hv = _dual_step(f1, 1.0 / lam, Dx, v)
        res, size = norm(Hv - v), norm(v)
        # Hv is this step's own array: relax it in place; v' - v = (1 - kappa)(Hv - v)
        v = _mann(kappa, v, Hv, scratch)
        x = solve(b - lam * D.adjoint(v))
        Dx = D.forward(x)
        obj = f1.value(Dx) + 0.5 * dot(x, Q @ x) - dot(b, x) + half_bc
        return v, x, (1.0 - kappa) * res, size, dict(objectives=obj, residuals=res, lams=lam,
                                                     alphas=kappa)

    trace = _drive(step, stop, lam, None, quality)
    return x, trace


def _quadratic_resolvent(f2, tau):
    """``(w, x0) -> x`` solving ``x + tau * grad f2(x) = w`` for a quadratic ``f2``:
    in closed form for the identity data operator, else by conjugate gradient
    on ``(I + tau A^T A) x = w + tau A^T b`` from ``x0``, to a residual of
    ``1e-10 ||rhs||``, a non-finite one or 1000 steps. ``A^T b`` is applied
    once, here. Its dot products go through :func:`dot`, so the bits do not
    depend on the BLAS thread count."""
    A, b = _quadratic(f2, "the primal resolvent")
    if A.tag == "identity":
        return lambda w, x0: (w + tau * b) / (1.0 + tau)
    tau_Atb = tau * A.adjoint(b)
    apply_M = lambda y: y + tau * A.adjoint(A.forward(y))

    def resolve(w, x0):
        rhs = w + tau_Atb
        x = x0.copy()
        r = rhs - apply_M(x)
        d = r.copy()
        rs = dot(r, r)
        target = 1e-10 * max(norm(rhs), 1e-300)
        for _ in range(1000):
            if math.sqrt(rs) <= target:
                break
            Md = apply_M(d)
            alpha = rs / dot(d, Md)
            x += alpha * d
            r -= alpha * Md
            rs_new = dot(r, r)
            if not math.isfinite(rs_new):  # NaN never meets the target; x carries it out
                break
            d = r + (rs_new / rs) * d
            rs = rs_new
        return x

    return resolve


def chambolle_pock(p, sigma, tau, theta, stop=None, x_true=None, record_iterates=False):
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
    quality = _quality(x_true, p.D.in_dim)
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    _quadratic(p.f2, "the primal resolvent")
    sig, tau = float(sigma), float(tau)
    lam_ref = sig * tau
    if not (sig > 0.0 and tau > 0.0 and lam_ref < p.lambda_hi):
        raise ValueError(f"sigma={sig} and tau={tau} must be positive with "
                         f"sigma*tau < {p.lambda_hi}")
    resolve = _quadratic_resolvent(p.f2, tau)
    vbar, x = np.zeros(p.D.out_dim), np.zeros(p.D.in_dim)
    y = x.copy()

    def step(n):
        nonlocal vbar, x, y
        vbar_new = conjugate_prox(p.f1, sig, vbar + sig * p.D.forward(y))
        x_new = resolve(x - tau * p.D.adjoint(vbar_new), x)
        y = x_new + theta * (x_new - x)
        change = _lnorm(vbar_new - vbar, x_new - x, lam_ref)
        size = _lnorm(vbar, x, lam_ref)
        vbar, x = vbar_new, x_new
        return vbar, x, change, size, dict(objectives=p.objective(x), residuals=change,
                                           gammas=tau, lams=sig, alphas=theta)

    trace = _drive(step, stop, lam_ref, PDState(vbar, x), quality, record_iterates)
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
    quality = _quality(x_true, p.D.in_dim)
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
        change, size = norm(x_new - x, d_new - d, v_new - v), norm(x, d, v)
        x, d, v, Dx = x_new, d_new, v_new, Dx_new
        # summed in the order of Problem.objective, so the rounding matches
        obj = p.f1.value(Dx) + it.value
        return v, x, change, size, dict(objectives=obj, residuals=change, gammas=delta,
                                        lams=nu, alphas=0.0)

    trace = _drive(step, stop, 1.0, None, quality)
    return SIUState(x, d, v), trace


def saddle_step(p, gamma, lam, vbar, x, y):
    """One iteration of the dynamic-stepsize method in saddle (conjugate-prox) form.

    With ``sigma = lam/gamma`` and the scaled dual ``vbar = (lam/gamma) v``::

        vbar' = prox_{sigma f1*}(vbar + sigma D y)
        x'    = x - gamma grad f2(x) - gamma D^T vbar'
        y'    = x' - gamma grad f2(x') - gamma D^T vbar'

    Seeding the kernel's ``y = x - gamma grad f2(x) - lam D^T v`` makes this
    reproduce one iteration of :func:`pdfp2o_ds` exactly (up to rounding).
    """
    sigma = lam / gamma
    vbar_new = conjugate_prox(p.f1, sigma, vbar + sigma * p.D.forward(y))
    x_new = x - gamma * p.f2.grad(x) - gamma * p.D.adjoint(vbar_new)
    y_new = x_new - gamma * p.f2.grad(x_new) - gamma * p.D.adjoint(vbar_new)
    return vbar_new, x_new, y_new
