"""Proximity operators, conjugate proxes, and smooth quadratic terms."""

import itertools
import operator

import numpy as np
from dataclasses import dataclass
from typing import Callable, Optional

from .linops import _integer, dot, norm, norm_sq_bound


@dataclass(frozen=True)
class ProxFn:
    """A convex function with an evaluable value and proximity map.

    ``prox(t, z)`` returns ``argmin_y t*f(y) + 0.5*||y - z||^2`` for ``t > 0``.
    The scale is taken at call time because solvers with dynamic stepsizes
    change it every iteration.

    ``conj_proj(t, w)``, optional, overwrites the float64 array ``w`` with
    ``w - prox(t, w)`` and returns it. For a norm this is, by Moreau's
    identity, the projection of ``w`` onto ``t * dom f*``; it agrees with
    ``w - prox(t, w)`` up to rounding. The solvers' dual step uses it when
    it is given and ``w - prox(t, w)`` otherwise.
    """

    dim: int
    value: Callable
    prox: Callable
    conj_proj: Optional[Callable] = None


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
        return 0.5 * dot(r, r), self.A.adjoint(r)


class UnsupportedProblemError(ValueError):
    """Raised when a solver cannot handle the supplied problem structure."""


def _quadratic(f2, what):
    """``(A, b)`` of a quadratic ``f2``; otherwise an error saying ``what`` needs one."""
    if not isinstance(f2, QuadraticFn):
        raise UnsupportedProblemError(f"{what} needs a quadratic data term")
    return f2.A, f2.b


def _positive(t):
    """``t``, once checked to be positive (NaN is not)."""
    if not t > 0:
        raise ValueError("t must be positive")
    return t


def l1_prox(t, z):
    """Componentwise soft threshold ``sign(z) * max(|z| - t, 0)``."""
    _positive(t)
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def _group_ids(dim, groups):
    """Validate that ``groups``, sequences of integer indices or an ``(n_groups, size)``
    integer array, partition ``range(dim)``; return the id map.

    The check runs on all indices at once. Read group by group, it raises at
    the first group that is out of range or overlaps an earlier one, and
    only then checks that every index is covered.
    """
    n_groups = len(groups)
    if isinstance(groups, np.ndarray) and groups.ndim == 2 and groups.dtype.kind in "iu":
        # an array's rows are the groups, read without a Python object per group
        sizes, idx = groups.shape[1], groups.ravel().astype(np.int64, copy=False)
    else:
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=n_groups)
        try:
            idx = np.fromiter(map(operator.index, itertools.chain.from_iterable(groups)),
                              dtype=np.int64, count=int(sizes.sum()))
        except TypeError:  # a float or bool index: name the first one
            for i in itertools.chain.from_iterable(groups):
                _integer(i, "group index")
            raise
    owner = np.repeat(np.arange(n_groups), sizes)
    bad = (idx < 0) | (idx >= dim)
    n_ok = int(owner[np.argmax(bad)]) if bad.any() else n_groups
    if n_ok < n_groups:  # only groups before the first out-of-range one can overlap
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

    When group ``g`` is ``{g, g + G, g + 2G, ...}`` for ``G > 1`` groups of
    one size (the layout of the isotropic TV penalty on stacked
    differences), norms and scaling work on the rows of the vector's
    ``(size, G)`` view; the norms add the rows' squares in index order, the
    order ``np.bincount`` adds in, so either layout gives the same bits. With
    one group, ``np.einsum`` would add a contiguous column in another order,
    so it and other partitions go through ``np.bincount``.
    """

    def __init__(self, dim, groups):
        self.gid = _group_ids(dim, groups)
        self.n_groups = n = len(groups)
        strided = n > 1 and dim % n == 0 and (self.gid.reshape(-1, n) == np.arange(n)).all()
        self.rows = dim // n if strided else None

    def norms(self, z):
        """Group norms; on the strided layout, one ``np.einsum`` over the rows."""
        if self.rows is None:
            return np.sqrt(np.bincount(self.gid, weights=z * z, minlength=self.n_groups))
        Z = z.reshape(self.rows, -1)
        norms = np.einsum("ij,ij->j", Z, Z)
        return np.sqrt(norms, out=norms)

    def _scaled(self, z, scale, out):
        """``out_g = z_g * scale_g`` for every group; returns ``out``."""
        if self.rows is None:
            return np.multiply(z, scale[self.gid], out=out)
        # a 1-D array's (size, G) reshape is always a view, so this writes ``out``
        np.multiply(z.reshape(self.rows, -1), scale, out=out.reshape(self.rows, -1))
        return out

    def shrink(self, t, z):
        """``z_g * max(1 - t/||z_g||, 0)`` per group; zero where ``||z_g||`` is 0 or NaN."""
        norms = self.norms(z)
        nz = norms > 0.0
        scale = np.divide(t, norms, out=norms, where=nz)
        np.subtract(1.0, scale, out=scale)
        np.maximum(scale, 0.0, out=scale)
        scale[~nz] = 0.0
        return self._scaled(z, scale, np.empty_like(z))

    def project(self, t, w):
        """Overwrite ``w`` with ``w_g * t / max(||w_g||, t)`` per group, its
        projection onto the product of balls ``||w_g|| <= t``, and return it."""
        norms = self.norms(w)
        scale = np.divide(t, np.maximum(norms, t, out=norms), out=norms)
        return self._scaled(w, scale, w)


def group_l2_prox(t, z, groups):
    """Blockwise shrinkage ``z_g * max(1 - t/||z_g||, 0)`` over a partition."""
    _positive(t)
    z = np.asarray(z, dtype=np.float64)
    return _Partition(z.size, groups).shrink(t, z)


def conjugate_prox(f, t, z):
    """Prox of the convex conjugate, ``prox_{t f*}(z) = z - t * prox_{f/t}(z/t)``.

    This realizes the Moreau decomposition: for any ``z`` and ``t > 0``,
    ``z = prox_{t f}(z) + t * prox_{(1/t) f*}(z / t)`` holds up to rounding.
    """
    _positive(t)
    z = np.asarray(z, dtype=np.float64)
    return z - t * f.prox(1.0 / t, z / t)


def resolvent_identity_check(f, nu, mu, z):
    """Residual of the two-scale resolvent identity for ``f``.

    Returns ``||prox_{nu f}(z) - prox_{mu f}((mu/nu) z + (1 - mu/nu) prox_{nu f}(z))||``,
    which is zero for any proper convex ``f``.
    """
    if not (nu > 0 and mu > 0):
        raise ValueError("nu and mu must be positive")
    z = np.asarray(z, dtype=np.float64)
    lhs = f.prox(nu, z)
    rhs = f.prox(mu, (mu / nu) * z + (1.0 - mu / nu) * lhs)
    return norm(lhs - rhs)


def subgradient_prox_check(f, t, z, seed=0, tol=1e-9, x=None):
    """Check the subgradient characterization of the prox at ``z``.

    With ``x = prox(t, z)`` and ``y = (z - x)/t``, verifies
    ``f(w) >= f(x) + <y, w - x> - tol`` at three deterministic and 32 random
    probes ``w``. Passing ``x`` overrides the prox output (useful to confirm
    that perturbed points fail the test).
    """
    _positive(t)
    z = np.asarray(z, dtype=np.float64)
    if x is None:
        x = f.prox(t, z)
    x = np.asarray(x, dtype=np.float64)
    y = (z - x) / t
    fx = f.value(x)
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.max(np.abs(z))))
    probes = [np.zeros_like(z), z.copy(), f.prox(t, z)]
    probes += [scale * rng.standard_normal(z.size) for _ in range(32)]
    for w in probes:
        if f.value(w) < fx + dot(y, w - x) - tol:
            return False
    return True


def quadratic_fn(A, b, power_seed=0):
    """Least-squares term ``0.5*||A x - b||^2`` as a :class:`SmoothFn`.

    The Lipschitz constant of the gradient is ``linops.norm_sq_bound(A)``.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.out_dim,):
        raise ValueError(f"b must have length {A.out_dim}, got {b.shape}")
    L = norm_sq_bound(A, power_seed)
    if L <= 0:
        raise ValueError("A must be nonzero")

    def value(x):
        r = A.forward(x) - b
        return 0.5 * dot(r, r)

    def grad(x):
        return A.adjoint(A.forward(x) - b)

    return QuadraticFn(dim=A.in_dim, value=value, grad=grad, lipschitz=L, A=A, b=b)


def zero_prox_fn(dim):
    """The zero function; its prox is the identity, and ``w - prox(t, w)``
    is zero (NaN where ``w`` is not finite)."""
    return ProxFn(dim=dim, value=lambda z: 0.0,
                  prox=lambda t, z: np.asarray(z, dtype=np.float64).copy(),
                  conj_proj=lambda t, w: np.subtract(w, w, out=w))


def l1_norm_fn(dim, weight=1.0):
    """Weighted l1 norm ``weight * ||z||_1``; ``conj_proj`` clips to
    ``[-t*weight, t*weight]``."""
    if not 0.0 < weight < np.inf:
        raise ValueError("weight must be a positive finite number")

    def conj_proj(t, w):
        c = _positive(t) * weight
        return np.clip(w, -c, c, out=w)

    return ProxFn(
        dim=dim,
        value=lambda z: weight * float(np.sum(np.abs(z))),
        prox=lambda t, z: l1_prox(t * weight, z),
        conj_proj=conj_proj,
    )


def group_l2_norm_fn(dim, groups, weight=1.0):
    """Weighted mixed l1-l2 norm ``weight * sum_g ||z_g||_2`` over a partition;
    ``conj_proj`` scales each group into the ball of radius ``t*weight``."""
    if not 0.0 < weight < np.inf:
        raise ValueError("weight must be a positive finite number")
    part = _Partition(dim, groups)
    return ProxFn(
        dim=dim,
        value=lambda z: weight * float(part.norms(np.asarray(z, dtype=np.float64)).sum()),
        prox=lambda t, z: part.shrink(_positive(t) * weight, np.asarray(z, dtype=np.float64)),
        conj_proj=lambda t, w: part.project(_positive(t) * weight, w),
    )
