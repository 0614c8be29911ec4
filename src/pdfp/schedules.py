"""Iteration-indexed stepsize sources, including the adaptive quotient rule."""

import math
from dataclasses import dataclass
from typing import Optional

from .solvers import Iterate, Schedule, _check_alpha, _check_alpha_clamp, _check_gamma, \
    _check_lambda, _quadratic

# Default clamp intervals, expressed relative to the problem's admissible ranges:
# gamma in [0.01, 1.99] * beta, alpha in [0.1, 0.9].
GAMMA_CLAMP_FRACTIONS = (0.01, 1.99)
ALPHA_CLAMP = (0.1, 0.9)


def _clip(value, lo, hi):
    return min(max(value, lo), hi)


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
    den = float(it.grad @ it.grad)
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return math.nan
    return num / den


def bb_dynamic_schedule(p, lambda0=None, alpha0=0.5, clamp=None):
    """Adaptive stepsize schedule: ``gamma_n`` from the residual/gradient quotient.

    ``gamma_n`` is the clamped quotient of the (unhalved) residual norm
    squared over the squared gradient norm at the current iterate, read
    from the iterate's cached ``f2`` value and gradient;
    ``lambda_n`` and ``alpha_n`` are held constant at ``lambda0`` (default
    ``1/lambda_max(D D^T)``) and ``alpha0``, each clipped into its clamp.
    A vanishing residual emits the lower gamma clamp; a vanishing gradient
    (iterate already stationary for the data term) emits the upper clamp.

    ``clamp`` is ``(gamma_lo, gamma_hi, lambda_lo, lambda_hi, alpha_lo,
    alpha_hi)`` in absolute units; an end given as ``None``, or every end
    when ``clamp`` is ``None``, takes its default, derived from the
    problem's admissible ranges.
    """
    _quadratic(p.f2, "the adaptive stepsize rule")
    g_lo, g_hi, l_lo, l_hi, a_lo, a_hi = _resolve_clamp(p, clamp)
    lam = _clip(p.lambda_hi if lambda0 is None else float(lambda0), l_lo, l_hi)
    alpha = _clip(float(alpha0), a_lo, a_hi)

    def gamma(n, it):
        raw = _bb_quotient(it)
        if math.isnan(raw):
            return g_hi
        return _clip(raw, g_lo, g_hi)

    return Schedule(gamma=gamma, lam=lambda n, it: lam, alpha=lambda n, it: alpha)


def _resolve_clamp(p, clamp):
    l_hi = p.lambda_hi
    defaults = (GAMMA_CLAMP_FRACTIONS[0] * p.beta, GAMMA_CLAMP_FRACTIONS[1] * p.beta,
                1e-12 if math.isinf(l_hi) else 1e-6 * l_hi, l_hi) + ALPHA_CLAMP
    clamp = (None,) * 6 if clamp is None else clamp
    g_lo, g_hi, l_lo, l_hi, a_lo, a_hi = (
        d if c is None else float(c) for c, d in zip(clamp, defaults, strict=True))
    if not g_lo <= g_hi:
        raise ValueError("gamma clamp must have gamma_lo <= gamma_hi")
    if not l_lo <= l_hi:
        raise ValueError("lambda clamp must have lambda_lo <= lambda_hi")
    # the ends must pass the checks the solver applies to every emitted step
    for g in (g_lo, g_hi):
        _check_gamma(g, p.beta, 0)
    for l in (l_lo, l_hi):
        _check_lambda(l, p.lambda_hi, 0)
    _check_alpha_clamp(a_lo, a_hi)
    return g_lo, g_hi, l_lo, l_hi, a_lo, a_hi


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
    """Declarative schedule description, constructible from a config file."""

    kind: str = "constant"
    gamma0: Optional[float] = None
    lambda0: Optional[float] = None
    alpha0: float = 0.0
    decay: float = 0.0
    clamp: Optional[tuple] = None

    def build(self, problem):
        gamma0 = 1.99 * problem.beta if self.gamma0 is None else self.gamma0
        lambda0 = problem.lambda_hi if self.lambda0 is None else self.lambda0
        if self.kind == "constant":
            return constant_schedule(gamma0, lambda0, self.alpha0, problem=problem)
        if self.kind == "bb_dynamic":
            return bb_dynamic_schedule(
                problem,
                lambda0=lambda0,
                alpha0=self.alpha0 if self.alpha0 > 0 else 0.5,
                clamp=self.clamp,
            )
        if self.kind == "convergent_perturbation":
            return convergent_perturbation_schedule(
                gamma0, lambda0, self.alpha0, self.decay, problem=problem
            )
        raise ValueError(f"unknown schedule kind {self.kind!r}")
