"""Proximity operators, conjugate proxes, and smooth quadratic terms."""

import itertools

import numpy as np
from dataclasses import dataclass
from typing import Callable

from .linops import POWER_TOL, op_norm_sq


@dataclass(frozen=True)
class ProxFn:
    """A convex function with an evaluable value and proximity map.

    ``prox(t, z)`` returns ``argmin_y t*f(y) + 0.5*||y - z||^2`` for ``t > 0``.
    The scale is taken at call time because solvers with dynamic stepsizes
    change it every iteration.
    """

    dim: int
    value: Callable
    prox: Callable


@dataclass(frozen=True)
class SmoothFn:
    """A differentiable convex function with a Lipschitz-continuous gradient."""

    dim: int
    value: Callable
    grad: Callable
    lipschitz: float

    def value_and_grad(self, x):
        return self.value(x), self.grad(x)


@dataclass(frozen=True)
class QuadraticFn(SmoothFn):
    """``0.5*||A x - b||^2`` with its operator and data kept accessible."""

    A: object = None
    b: object = None

    def value_and_grad(self, x):
        r = self.A.forward(x) - self.b
        return 0.5 * float(r @ r), self.A.adjoint(r)


def l1_prox(t, z):
    """Componentwise soft threshold ``sign(z) * max(|z| - t, 0)``."""
    if t <= 0:
        raise ValueError("t must be positive")
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def _group_ids(dim, groups):
    """Validate that ``groups``, sequences of indices, partition ``range(dim)``;
    return the id map.

    The check runs on all indices at once. Read group by group, it raises at
    the first group that is out of range or overlaps an earlier one, and
    only then checks that every index is covered.
    """
    n_groups = len(groups)
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=n_groups)
    idx = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64,
                      count=int(sizes.sum()))
    owner = np.repeat(np.arange(n_groups), sizes)
    bad = (idx < 0) | (idx >= dim)
    n_ok = int(owner[np.argmax(bad)]) if bad.any() else n_groups
    # only groups before the first out-of-range one can overlap
    ok = owner < n_ok
    idx, owner = idx[ok], owner[ok]
    gid = np.full(dim, n_groups, dtype=np.int64)
    np.minimum.at(gid, idx, owner)
    if (owner > gid[idx]).any():
        raise ValueError("groups overlap; overlapping groups are not supported")
    if n_ok < n_groups:
        raise ValueError("group index out of range")
    if np.any(gid == n_groups):
        raise ValueError("groups do not cover every index")
    return gid


class _Partition:
    """A validated partition of ``range(dim)`` with per-group norms and scaling.

    When group ``g`` is ``{g, g + G, g + 2G, ...}`` for ``G`` groups of one
    size (the layout of the isotropic TV penalty on stacked differences),
    both work on a ``(size, G)`` view of the vector and add its rows in
    index order, the order ``np.bincount`` adds in, so either layout gives
    the same bits. Other partitions go through ``np.bincount``.
    """

    def __init__(self, dim, groups):
        self.gid = _group_ids(dim, groups)
        self.n_groups = n = len(groups)
        strided = n > 0 and dim % n == 0 and np.array_equal(self.gid, np.arange(dim) % n)
        self.rows = dim // n if strided else None

    def _norms(self, z):
        """Group norms and, for the strided layout, the ``(size, G)`` array of
        squares whose row 0 they overwrite (None otherwise)."""
        if self.rows is None:
            return np.sqrt(np.bincount(self.gid, weights=z * z, minlength=self.n_groups)), None
        sq = (z * z).reshape(self.rows, self.n_groups)
        norms = sq[0]
        for row in sq[1:]:
            norms += row
        return np.sqrt(norms, out=norms), sq

    def norms(self, z):
        return self._norms(z)[0]

    def shrink(self, t, z):
        """``z_g * max(1 - t/||z_g||, 0)`` per group; zero where ``||z_g||`` is 0 or NaN.

        The strided layout computes in the one buffer it returns.
        """
        norms, sq = self._norms(z)
        nz = norms > 0.0
        scale = np.divide(t, norms, out=norms, where=nz)
        np.subtract(1.0, scale, out=scale)
        np.maximum(scale, 0.0, out=scale)
        scale[~nz] = 0.0
        if sq is None:
            return z * scale[self.gid]
        zr = z.reshape(sq.shape)
        np.multiply(zr[1:], scale, out=sq[1:])
        np.multiply(zr[0], scale, out=sq[0])  # last: sq[0] holds the scale
        return sq.ravel()


def group_l2_prox(t, z, groups):
    """Blockwise shrinkage ``z_g * max(1 - t/||z_g||, 0)`` over a partition."""
    if t <= 0:
        raise ValueError("t must be positive")
    z = np.asarray(z, dtype=np.float64)
    return _Partition(z.size, groups).shrink(t, z)


def conjugate_prox(f, t, z):
    """Prox of the convex conjugate, ``prox_{t f*}(z) = z - t * prox_{f/t}(z/t)``.

    This realizes the Moreau decomposition: for any ``z`` and ``t > 0``,
    ``z = prox_{t f}(z) + t * prox_{(1/t) f*}(z / t)`` holds up to rounding.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    z = np.asarray(z, dtype=np.float64)
    return z - t * f.prox(1.0 / t, z / t)


def resolvent_identity_check(f, nu, mu, z):
    """Residual of the two-scale resolvent identity for ``f``.

    Returns ``||prox_{nu f}(z) - prox_{mu f}((mu/nu) z + (1 - mu/nu) prox_{nu f}(z))||``,
    which is zero for any proper convex ``f``.
    """
    if nu <= 0 or mu <= 0:
        raise ValueError("nu and mu must be positive")
    z = np.asarray(z, dtype=np.float64)
    lhs = f.prox(nu, z)
    rhs = f.prox(mu, (mu / nu) * z + (1.0 - mu / nu) * lhs)
    return float(np.linalg.norm(lhs - rhs))


def subgradient_prox_check(f, t, z, n_probes=32, seed=0, tol=1e-9, x=None):
    """Check the subgradient characterization of the prox at ``z``.

    With ``x = prox(t, z)`` and ``y = (z - x)/t``, verifies
    ``f(w) >= f(x) + <y, w - x> - tol`` at deterministic and random probes
    ``w``. Passing ``x`` overrides the prox output (useful to confirm that
    perturbed points fail the test).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    z = np.asarray(z, dtype=np.float64)
    if x is None:
        x = f.prox(t, z)
    x = np.asarray(x, dtype=np.float64)
    y = (z - x) / t
    fx = f.value(x)
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.max(np.abs(z))))
    probes = [np.zeros_like(z), z.copy(), f.prox(t, z)]
    probes += [scale * rng.standard_normal(z.size) for _ in range(n_probes)]
    for w in probes:
        if f.value(w) < fx + float(y @ (w - x)) - tol:
            return False
    return True


def quadratic_fn(A, b, power_seed=0):
    """Least-squares term ``0.5*||A x - b||^2`` as a :class:`SmoothFn`.

    The Lipschitz constant of the gradient is estimated by power iteration
    and inflated by ``1 + POWER_TOL`` so stepsize bounds derived from it stay
    on the safe side of estimation error.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.out_dim,):
        raise ValueError(f"b must have length {A.out_dim}, got {b.shape}")
    if A.norm_sq_hint is not None:
        L = float(A.norm_sq_hint)
    else:
        L = op_norm_sq(A, tol=POWER_TOL, seed=power_seed) * (1.0 + POWER_TOL)
    if L <= 0:
        raise ValueError("A must be nonzero")

    def value(x):
        r = A.forward(x) - b
        return 0.5 * float(r @ r)

    def grad(x):
        return A.adjoint(A.forward(x) - b)

    return QuadraticFn(dim=A.in_dim, value=value, grad=grad, lipschitz=L, A=A, b=b)


def zero_prox_fn(dim):
    """The zero function; its prox is the identity."""
    return ProxFn(dim=dim, value=lambda z: 0.0, prox=lambda t, z: np.asarray(z, dtype=np.float64).copy())


def l1_norm_fn(dim, weight=1.0):
    """Weighted l1 norm ``weight * ||z||_1``."""
    if weight <= 0:
        raise ValueError("weight must be positive")
    return ProxFn(
        dim=dim,
        value=lambda z: weight * float(np.sum(np.abs(z))),
        prox=lambda t, z: l1_prox(t * weight, z),
    )


def group_l2_norm_fn(dim, groups, weight=1.0):
    """Weighted mixed l1-l2 norm ``weight * sum_g ||z_g||_2`` over a partition."""
    if weight <= 0:
        raise ValueError("weight must be positive")
    part = _Partition(dim, groups)

    def value(z):
        z = np.asarray(z, dtype=np.float64)
        return weight * float(part.norms(z).sum())

    def prox(t, z):
        if t <= 0:
            raise ValueError("t must be positive")
        z = np.asarray(z, dtype=np.float64)
        return part.shrink(t * weight, z)

    return ProxFn(dim=dim, value=value, prox=prox)
