"""The step layer under the solvers: the :class:`Iterate` a step starts from,
the :class:`Schedule` it draws its stepsizes from, the range checks every
drawn step passes, and the schedules, including the adaptive quotient rule."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linops import dot
from .prox import _quadratic

# Step defaults: the adaptive rule's gamma clamp [0.01, 1.99] * beta (the upper end is
# also the default gamma) and the relaxation weight.
GAMMA_CLAMP_FRACTIONS = (0.01, 1.99)
RELAXATION_WEIGHT = 0.5


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


def _check_gamma(g, beta, n):
    eps = 1e-12 * beta
    if not (eps < g < 2.0 * beta - eps):
        raise ValueError(f"gamma={g} out of range (0, {2.0 * beta}) at iteration {n}")


def _check_lambda(l, lam_hi, n):
    eps = 0.0 if math.isinf(lam_hi) else 1e-12 * lam_hi
    if not (eps < l) or l > lam_hi:
        raise ValueError(f"lambda={l} out of range (0, {lam_hi}] at iteration {n}")


def _check_alpha(a, n, name="alpha"):
    if not (0.0 <= a < 1.0):
        raise ValueError(f"{name}={a} out of range [0, 1) at iteration {n}")


def _steps(p, sched, n, it):
    """``(gamma, lambda, alpha)`` of step ``n`` from ``it``, drawn from ``sched``
    in that order and range-checked; ``alpha`` is 0 when ``sched.alpha`` is None."""
    g, l = float(sched.gamma(n, it)), float(sched.lam(n, it))
    a = 0.0 if sched.alpha is None else float(sched.alpha(n, it))
    _check_gamma(g, p.beta, n)
    _check_lambda(l, p.lambda_hi, n)
    _check_alpha(a, n)
    return g, l, a


def constant_schedule(gamma, lam, alpha=0.0, problem=None):
    """Schedule emitting the same (gamma, lambda, alpha) every iteration.

    When ``problem`` is given, the values are validated at construction by
    the checks the solvers apply at every iteration: ``gamma`` strictly
    inside ``(0, 2 beta)``, ``lam`` in ``(0, 1/lambda_max(D D^T)]`` (the
    upper end is admissible), both with a margin of ``1e-12`` times the
    range at the open ends. ``alpha`` must lie in ``[0, 1)``. This is the
    decaying schedule at zero decay.
    """
    return convergent_perturbation_schedule(gamma, lam, alpha, 0.0, problem)


def bb_gamma_raw(f2, x):
    """The adaptive stepsize quotient before clamping.

    Returns ``||A x - b||^2 / ||grad f2(x)||^2`` for a quadratic data term.
    The special values: NaN when the gradient vanishes, 0.0 when only the
    residual vanishes.
    """
    _quadratic(f2, "the adaptive stepsize rule")
    return _bb_quotient(Iterate.at(f2, x))


def _bb_quotient(it):
    num = 2.0 * it.value
    den = dot(it.grad, it.grad)
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return math.nan
    return num / den


def bb_dynamic_schedule(p, lambda0=None, alpha0=RELAXATION_WEIGHT, clamp=None):
    """Adaptive stepsize schedule: ``gamma_n`` from the residual/gradient quotient.

    ``gamma_n`` is the quotient of the (unhalved) residual norm squared over
    the squared gradient norm at the current iterate, read from the
    iterate's cached ``f2`` value and gradient, clipped into the clamp
    ``[gamma_lo, gamma_hi]``. A vanishing residual emits the lower end; a
    vanishing gradient (iterate already stationary for the data term) emits
    the upper end. ``lambda_n`` and ``alpha_n`` are held at ``lambda0`` in
    ``(0, 1/lambda_max(D D^T)]`` (default the upper end) and ``alpha0`` in
    ``[0, 1)``, range-checked and emitted as given.

    ``clamp`` is ``(gamma_lo, gamma_hi)`` in absolute units; an end given as
    ``None``, or both when ``clamp`` is ``None``, takes its default,
    ``GAMMA_CLAMP_FRACTIONS`` times ``beta``.
    """
    _quadratic(p.f2, "the adaptive stepsize rule")
    g_lo, g_hi = _resolve_clamp(p, clamp)
    lam, alpha = p.lambda_hi if lambda0 is None else float(lambda0), float(alpha0)
    _check_lambda(lam, p.lambda_hi, 0)
    _check_alpha(alpha, 0)

    def gamma(n, it):
        raw = _bb_quotient(it)
        if math.isnan(raw):
            return g_hi
        return min(max(raw, g_lo), g_hi)

    return Schedule(gamma=gamma, lam=lambda n, it: lam, alpha=lambda n, it: alpha)


def _resolve_clamp(p, clamp):
    clamp = (None, None) if clamp is None else tuple(clamp)
    if len(clamp) != 2:
        raise ValueError(f"clamp must be (gamma_lo, gamma_hi), got {len(clamp)} ends")
    g_lo, g_hi = (f * p.beta if c is None else float(c)
                  for c, f in zip(clamp, GAMMA_CLAMP_FRACTIONS))
    if not g_lo <= g_hi:
        raise ValueError("gamma clamp must have gamma_lo <= gamma_hi")
    # the ends must pass the check the solver applies to every emitted gamma
    for g in (g_lo, g_hi):
        _check_gamma(g, p.beta, 0)
    return g_lo, g_hi


def convergent_perturbation_schedule(gamma, lam, alpha=0.0, decay=0.0, problem=None):
    """Schedule with a vanishing perturbation: ``gamma_n = gamma + decay/(n+1)``.

    ``lambda_n`` decays the same way toward ``lam``. Given a problem, the
    schedule caps ``lambda_n`` at ``1/lambda_max(D D^T)`` and ``gamma_n`` at
    ``max(gamma, 2 beta (1 - 1e-9))``, so ``decay = 0`` emits ``gamma`` and
    ``lam`` exactly (the constant schedule).
    """
    gamma, lam, alpha, decay = float(gamma), float(lam), float(alpha), float(decay)
    if not 0.0 <= decay < math.inf:
        raise ValueError("decay must be a nonnegative finite number")
    if problem is not None:
        _check_gamma(gamma, problem.beta, 0)
        _check_lambda(lam, problem.lambda_hi, 0)
    _check_alpha(alpha, 0)
    g_hi = math.inf if problem is None else max(gamma, 2.0 * problem.beta * (1.0 - 1e-9))
    l_hi = math.inf if problem is None else problem.lambda_hi

    def gamma_src(n, it):
        return min(gamma + decay / (n + 1.0), g_hi)

    def lam_src(n, it):
        return min(lam + decay / (n + 1.0), l_hi)

    return Schedule(gamma=gamma_src, lam=lam_src, alpha=lambda n, it: alpha)


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative schedule description, constructible from a config file.
    A step left at ``None`` takes its default, as ``auto`` does in a config;
    ``clamp`` is ``bb_dynamic``'s ``(gamma_lo, gamma_hi)``."""

    kind: str = "constant"
    gamma0: Optional[float] = None
    lambda0: Optional[float] = None
    alpha0: Optional[float] = None
    decay: float = 0.0
    clamp: Optional[tuple] = None

    def build(self, problem):
        gamma0 = GAMMA_CLAMP_FRACTIONS[1] * problem.beta if self.gamma0 is None else self.gamma0
        lambda0 = problem.lambda_hi if self.lambda0 is None else self.lambda0
        alpha0 = RELAXATION_WEIGHT if self.alpha0 is None else self.alpha0
        if self.kind == "constant":
            return constant_schedule(gamma0, lambda0, alpha0, problem=problem)
        if self.kind == "bb_dynamic":
            return bb_dynamic_schedule(problem, lambda0=lambda0, alpha0=alpha0, clamp=self.clamp)
        if self.kind == "convergent_perturbation":
            return convergent_perturbation_schedule(
                gamma0, lambda0, alpha0, self.decay, problem=problem
            )
        raise ValueError(f"unknown schedule kind {self.kind!r}")
