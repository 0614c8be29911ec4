"""Norms, residuals, image-quality metrics, and the linear-rate certificate."""

import contextlib
import math
import os
import uuid
from dataclasses import dataclass, fields

import numpy as np

from . import schedules, solvers
from .linops import dot, norm

# trace.csv's columns: each RunTrace field that carries a csv name, in field order
_TRACE_CSV = {f.metadata["csv"]: f.name for f in fields(solvers.RunTrace) if f.metadata.get("csv")}
TRACE_CSV_HEADER = ",".join(_TRACE_CSV)

# Largest dual dimension whose D D^T the rate certificate decomposes densely.
CERTIFICATE_MAX_DUAL_DIM = 5000


class InvariantViolationError(RuntimeError):
    """A quantity that should be nonnegative came out significantly negative."""


class CertificateNotApplicable(ValueError):
    """The rate certificate's conditions fail; the message names which, with its numbers."""


def lambda_norm(u, lam):
    """Product-space norm ``sqrt(||x||^2 + lam * ||v||^2)`` of a (v, x) state."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    return solvers._lnorm(u.v, u.x, lam)


def m_seminorm(v, D, lam):
    """Semi-norm ``sqrt(<v, (I - lam D D^T) v>)`` of a dual vector.

    For ``0 < lam <= 1/lambda_max(D D^T)`` the weighting matrix is positive
    semi-definite; rounding-level negative inner products (down to
    ``-1e-12 ||v||^2``, since rounding scales with ``||v||^2``) are clamped to
    zero, anything more negative means ``lam`` is too large and raises
    :class:`InvariantViolationError`.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    v = np.asarray(v, dtype=np.float64)
    Dt_v = D.adjoint(v)
    vv = dot(v, v)
    val = vv - lam * dot(Dt_v, Dt_v)
    if val < -1e-12 * vv:
        raise InvariantViolationError(
            f"<v, (I - lam D D^T) v> = {val} < -1e-12 ||v||^2 = {-1e-12 * vv}; lam is too large"
        )
    return math.sqrt(max(val, 0.0))


def snr(x, x_true):
    """Signal-to-noise ratio ``20 log10(||x_true|| / ||x - x_true||)`` in dB.

    Returns ``inf`` when the two images agree exactly.
    """
    return rel_err_snr(x, x_true)[1]


def rel_err(x, x_true):
    """Squared relative error ``||x - x_true||^2 / ||x_true||^2``."""
    return rel_err_snr(x, x_true)[0]


def rel_err_snr(x, x_true):
    """``(rel_err(x, x_true), snr(x, x_true))`` from one difference and one norm each."""
    return solvers._quality(x_true)(x)


def fixed_point_residual(p, gamma, lam, u):
    """``||u - T(u)||`` in the lambda-weighted norm, at constant stepsizes."""
    Tu = solvers.apply_T(p, gamma, lam, u)
    return lambda_norm(solvers.PDState(u.v - Tu.v, u.x - Tu.x), lam)


def optimality_residual(p, gamma, lam, u):
    """How far a state is from the first-order conditions of the problem.

    Returns the larger of the gradient-balance residual
    ``||gamma grad f2(x) + lam D^T v||`` and the prox-characterization
    residual ``||D x - prox_{(gamma/lam) f1}(D x + v)||``; both vanish
    exactly at a fixed point whose x solves the problem.
    """
    grad_bal = gamma * p.f2.grad(u.x) + lam * p.D.adjoint(u.v)
    Dx = p.D.forward(u.x)
    prox_res = Dx - p.f1.prox(gamma / lam, Dx + u.v)
    return max(norm(grad_bal), norm(prox_res))


def fejer_check(trace, u_ref, lam):
    """True iff ``||u_n - u_ref||`` is non-increasing (to 1e-10) along the stored iterates.

    Requires the trace to have been recorded with ``record_iterates=True``.
    A trace holding only the starting state passes vacuously.
    """
    if trace.iterates is None:
        raise ValueError("trace does not store iterates; rerun with record_iterates=True")
    dists = [
        lambda_norm(solvers.PDState(u.v - u_ref.v, u.x - u_ref.x), lam) for u in trace.iterates
    ]
    return all(b <= a + 1e-10 for a, b in zip(dists, dists[1:]))


@dataclass(frozen=True)
class RateCertificate:
    """A-priori geometric convergence bound ``||x_n - x*|| <= d theta^n / (1 - theta)``.

    ``mu`` and ``nu`` are the contraction factors of the dual weighting and
    of the forward step, ``eta = max(mu, nu)``, and ``theta`` folds in the
    relaxation range ``[alpha_lo, alpha_hi]`` as
    ``theta = alpha_hi + (1 - alpha_lo) eta``; at one weight ``alpha`` it is
    ``alpha + (1 - alpha) eta``, the factor of the relaxed step itself.
    """

    mu: float
    nu: float
    eta: float
    theta: float
    d: float

    def bound(self, n):
        return self.d * self.theta ** n / (1.0 - self.theta)


def _dense_gram(D):
    m = D.out_dim
    B = np.empty((m, m))
    e = np.zeros(m)
    for j in range(m):
        e[j] = 1.0
        B[:, j] = D.forward(D.adjoint(e))
        e[j] = 0.0
    return B


def rate_certificate(p, gamma, lam, alpha_lo, alpha_hi, sigma, alpha0=None):
    """Geometric-rate certificate for strongly convex data and full-row-rank ``D``.

    The contraction factors are ``mu^2 = 1 - lam * lambda_min(D D^T)`` and
    ``nu^2 = 1 - gamma sigma (2 beta - gamma) / beta`` where ``sigma`` is
    the strong-convexity modulus of ``f2`` (supplied by the caller, who
    asserts full row rank of ``D``). The bound holds for a run whose every
    relaxation weight, the first one's ``alpha0`` (default ``alpha_lo``)
    included, lies in ``[alpha_lo, alpha_hi]`` inside ``[0, 1)``; ``d`` is
    the length of that first step, taken from zero.

    Raises :class:`CertificateNotApplicable`, naming the condition and its
    numbers, when the dual dimension exceeds ``CERTIFICATE_MAX_DUAL_DIM``
    (the extreme eigenvalues come from a dense symmetric eigensolver), when
    ``mu`` or ``nu`` reaches 1, or when ``theta`` reaches 1. ``alpha0``,
    then the range, ``gamma``, by the solvers' own range check, and that
    ``lam`` is positive and finite are checked before the size; ``lam``'s
    upper end after it.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be a positive finite number")
    a0 = alpha_lo if alpha0 is None else float(alpha0)
    schedules._check_alpha(a0, 0)
    if not 0.0 <= alpha_lo <= a0 <= alpha_hi < 1.0:
        raise ValueError(f"relaxation range [{alpha_lo}, {alpha_hi}] must hold alpha0={a0} "
                         f"and lie in [0, 1)")
    schedules._check_gamma(gamma, p.beta, 0)
    if not (0.0 < lam < math.inf):
        raise ValueError(f"lam={lam} must be positive and finite")
    if p.D.out_dim > CERTIFICATE_MAX_DUAL_DIM:
        raise CertificateNotApplicable(f"certificate not applicable: dual dimension {p.D.out_dim}"
                                       f" exceeds the limit of {CERTIFICATE_MAX_DUAL_DIM}")
    import scipy.linalg
    eigs = scipy.linalg.eigvalsh(_dense_gram(p.D))
    lam_min, lam_max = max(float(eigs[0]), 0.0), float(eigs[-1])
    lam_hi = math.inf if lam_max == 0.0 else (1.0 + 1e-9) / lam_max
    if not (0.0 < lam <= lam_hi):
        raise ValueError(f"lam={lam} out of range (0, {lam_hi}]")
    mu_sq = 1.0 - lam * lam_min
    nu_sq = 1.0 - gamma * sigma * (2.0 * p.beta - gamma) / p.beta
    mu = math.sqrt(max(mu_sq, 0.0))
    nu = math.sqrt(max(nu_sq, 0.0))
    if mu >= 1.0 or nu >= 1.0:
        raise CertificateNotApplicable(f"certificate not applicable: contraction factors "
                                       f"reach 1: mu={mu!r}, nu={nu!r}")
    eta = max(mu, nu)
    theta = alpha_hi + (1.0 - alpha_lo) * eta
    if theta >= 1.0:
        raise CertificateNotApplicable(f"certificate not applicable: theta = alpha_hi + (1 - "
                                       f"alpha_lo) * eta = {theta!r} reaches 1, eta={eta!r}")
    u0 = p.zeros()
    # the stepsizes were validated against the dense spectrum above, which
    # can admit the exact upper end that the cached estimate would reject
    vt, xt, _, _ = solvers._tentative(p, gamma, lam, u0.v, u0.x, p.f2.grad(u0.x))
    # the first step starts from zero: by the kernel's rule, (1 - alpha0) times its residual
    d = (1.0 - a0) * solvers._lnorm(vt, xt, lam)
    return RateCertificate(mu=mu, nu=nu, eta=eta, theta=theta, d=d)


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@contextlib.contextmanager
def atomic_write(path):
    """Open a temporary binary file beside ``path``; move it onto ``path`` when done.

    Readers of ``path`` see the previous file or the whole new one, whose data
    is synced to disk before the rename. If the body raises, the temporary
    file is removed and ``path`` is untouched.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_lines(path, lines):
    """Write ``lines`` to ``path`` through :func:`atomic_write`, each ended by a newline."""
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def write_csv(path, header, columns):
    """Write equal-length ``columns`` under ``header``, one row per index;
    integers print as integers, other values as ``repr(float)``."""
    write_lines(path, [header] + [",".join(map(_fmt, row)) for row in zip(*columns)])


def write_trace_csv(trace, path):
    """Serialize a run trace to CSV (one row per iteration)."""
    write_csv(path, TRACE_CSV_HEADER, [getattr(trace, name) for name in _TRACE_CSV.values()])
