"""Linear operators: finite differences, sparse matrices, blur, spectral estimation."""

import numpy as np
import scipy.ndimage
import scipy.sparse
from dataclasses import dataclass
from typing import Callable, Optional


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; ``best_estimate`` holds the last value."""

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class LinearOp:
    """A linear map given by matching forward/adjoint closures.

    ``forward`` maps length ``in_dim`` vectors to length ``out_dim`` vectors,
    ``adjoint`` the reverse, and the pair must satisfy
    ``vdot(forward(x), v) == vdot(x, adjoint(v))``. Constructors that know
    the largest eigenvalue of ``D D^T`` in closed form record it in
    ``norm_sq_hint``; consumers prefer it over power-iteration estimates.
    """

    in_dim: int
    out_dim: int
    forward: Callable
    adjoint: Callable
    tag: Optional[str] = None
    norm_sq_hint: Optional[float] = None


class SparseMatrix:
    """Sparse matrix built from (row, col, value) triplets.

    Duplicate triplets are summed at construction. Backed by a CSR matrix
    for products; ``triplets`` returns the canonical (deduplicated) entries.
    """

    def __init__(self, rows, cols, triplets):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        if isinstance(triplets, tuple) and len(triplets) == 3:
            i, j, v = triplets
        else:
            trip = list(triplets)
            if trip:
                i, j, v = zip(*trip)
            else:
                i, j, v = [], [], []
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        if i.size and (i.min() < 0 or i.max() >= rows or j.min() < 0 or j.max() >= cols):
            raise ValueError("triplet index out of range")
        # a stable sort keeps each row's triplets in input order, as coo.tocsr() does
        order = np.argsort(i, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=self.rows))))
        self._set_csr(v[order], j[order], indptr)

    @classmethod
    def _from_csr(cls, rows, cols, data, indices, indptr):
        """Wrap CSR arrays whose rows need not be sorted or free of duplicates."""
        M = cls.__new__(cls)
        M.rows, M.cols = int(rows), int(cols)
        M._set_csr(data, indices, indptr)
        return M

    def _set_csr(self, data, indices, indptr):
        # sorts each row's indices and sums duplicates in the order coo.tocsr()
        # does, so both constructors give the same arrays bit for bit
        self._csr = scipy.sparse.csr_matrix((data, indices, indptr), shape=self.shape)
        self._csr.sum_duplicates()
        self._csr_t = None

    @classmethod
    def identity(cls, n):
        idx = np.arange(n)
        return cls(n, n, (idx, idx, np.ones(n)))

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return self._csr.nnz

    @property
    def triplets(self):
        coo = self._csr.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ValueError(f"matvec expects a vector of length {self.cols}, got {x.shape}")
        return self._csr @ x

    def rmatvec(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.rows,):
            raise ValueError(f"rmatvec expects a vector of length {self.rows}, got {v.shape}")
        if self._csr_t is None:
            self._csr_t = self._csr.T.tocsr()
        return self._csr_t @ v

    def to_dense(self):
        return self._csr.toarray()


def matrix_op(M):
    """Wrap a :class:`SparseMatrix` as a :class:`LinearOp`."""
    return LinearOp(in_dim=M.cols, out_dim=M.rows, forward=M.matvec, adjoint=M.rmatvec)


def identity_op(n):
    """Identity operator on length-``n`` vectors."""

    def apply(x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError(f"expected a vector of length {n}, got {x.shape}")
        return x.copy()

    return LinearOp(in_dim=n, out_dim=n, forward=apply, adjoint=apply, tag="identity", norm_sq_hint=1.0)


def diff_op_2d(height, width, variant="anisotropic"):
    """First-difference operator of an ``height x width`` image.

    Maps the flattened (row-major) image to stacked horizontal and vertical
    first differences, so ``out_dim = 2 * height * width``. The trailing
    column (horizontal block) and trailing row (vertical block) are zero,
    which keeps the largest eigenvalue of ``D D^T`` below 8. ``variant``
    only tags which penalty is paired with the output downstream
    ("anisotropic" pairs an l1 penalty, "isotropic-pair" an l2 penalty over
    each pixel's difference pair); the operator itself is identical.
    """
    if height < 2 or width < 2:
        raise ValueError("diff_op_2d needs height >= 2 and width >= 2")
    if variant not in ("anisotropic", "isotropic-pair"):
        raise ValueError(f"unknown variant {variant!r}")
    h, w = int(height), int(width)
    hw = h * w

    def forward(x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (hw,):
            raise ValueError(f"expected a flattened {h}x{w} image of length {hw}")
        img = x.reshape(h, w)
        out = np.empty(2 * hw)
        dh = out[:hw].reshape(h, w)
        dv = out[hw:].reshape(h, w)
        np.subtract(img[:, 1:], img[:, :-1], out=dh[:, :-1])
        dh[:, -1] = 0.0
        np.subtract(img[1:], img[:-1], out=dv[:-1])
        dv[-1] = 0.0
        return out

    def adjoint(u):
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (2 * hw,):
            raise ValueError(f"expected a stacked difference vector of length {2 * hw}")
        p = u[:hw].reshape(h, w)
        q = u[hw:].reshape(h, w)
        # Each entry sums as (((0 - p_right) + p_left) - q_below) + q_above,
        # a fixed order; 0.0 - p, unlike -p, gives +0.0 where p is +0.0.
        out = np.empty((h, w))
        np.subtract(0.0, p[:, :-1], out=out[:, :-1])
        out[:, -1] = 0.0
        out[:, 1:] += p[:, :-1]
        out[:-1, :] -= q[:-1, :]
        out[1:, :] += q[:-1, :]
        return out.ravel()

    # Largest eigenvalue of D D^T in closed form: the 1-D second-difference
    # spectra add across the two axes, staying strictly below 8.
    hint = 4.0 * np.sin((h - 1) * np.pi / (2.0 * h)) ** 2 + 4.0 * np.sin(
        (w - 1) * np.pi / (2.0 * w)
    ) ** 2
    return LinearOp(
        in_dim=hw, out_dim=2 * hw, forward=forward, adjoint=adjoint, tag=variant,
        norm_sq_hint=hint,
    )


def gaussian_blur_op(height, width, radius, sigma):
    """Normalized Gaussian blur with mirrored boundary on an h x w image.

    The kernel weights are ``exp(-(i^2 + j^2) / (2 sigma^2))`` on a
    ``(2 radius + 1)`` square window, normalized to sum to one, so constant
    images are preserved. The mirror boundary makes the operator exactly
    self-adjoint (edge replication is only self-adjoint for radius 1).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius < 1 or int(radius) != radius:
        raise ValueError("radius must be a positive integer")
    h, w = int(height), int(width)
    if radius >= min(h, w):
        raise ValueError("radius must be smaller than both image dimensions")
    hw = h * w
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(offs ** 2) / (2.0 * sigma ** 2))
    k1 /= k1.sum()

    def apply(x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (hw,):
            raise ValueError(f"expected a flattened {h}x{w} image of length {hw}")
        img = x.reshape(h, w)
        out = scipy.ndimage.convolve1d(img, k1, axis=0, mode="reflect")
        out = scipy.ndimage.convolve1d(out, k1, axis=1, mode="reflect")
        return out.ravel()

    return LinearOp(in_dim=hw, out_dim=hw, forward=apply, adjoint=apply, norm_sq_hint=1.0)


def op_norm_sq(D, tol=1e-6, max_iter=20000, seed=0):
    """Estimate the largest eigenvalue of ``D D^T`` by power iteration.

    Iterates on ``D^T D`` or ``D D^T``, whichever is smaller, and stops when
    the Rayleigh quotient changes by less than ``tol`` relative. The zero
    operator returns 0. Deterministic for a given ``seed``.

    Raises
    ------
    PowerIterationError
        If the change criterion is not met within ``max_iter`` iterations;
        the exception carries the best estimate so far.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if D.in_dim <= D.out_dim:
        dim = D.in_dim
        B = lambda z: D.adjoint(D.forward(z))
    else:
        dim = D.out_dim
        B = lambda z: D.forward(D.adjoint(z))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    nz = np.linalg.norm(z)
    if nz == 0.0:
        return 0.0
    z = z / nz
    lam_prev = None
    change_prev = None
    extrap_prev = None
    lam = 0.0
    for _ in range(max_iter):
        w = B(z)
        lam = float(z @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        if lam_prev is not None:
            change = abs(lam - lam_prev)
            if change <= 4.0 * np.finfo(float).eps * abs(lam):
                return lam
            # The Rayleigh quotient converges linearly from below, so the
            # geometric tail can be summed (Aitken extrapolation); stop when
            # the extrapolated limit stabilizes to the requested tolerance.
            if change_prev is not None and change < change_prev:
                rho = change / change_prev
                extrap = lam + change * rho / (1.0 - rho)
                if extrap_prev is not None and abs(extrap - extrap_prev) <= tol * max(
                    abs(extrap), 1e-300
                ):
                    return extrap
                extrap_prev = extrap
            change_prev = change
        z = w / nw
        lam_prev = lam
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations",
        best_estimate=lam if extrap_prev is None else extrap_prev,
    )
