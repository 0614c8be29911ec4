"""Linear operators: finite differences, sparse matrices, blur, spectral estimation."""

import numpy as np
from dataclasses import dataclass
from typing import Callable, Optional


# Relative tolerance of the power-iteration spectral estimates that set the
# stepsize bounds; each estimate is inflated by ``1 + POWER_TOL``.
POWER_TOL = 1e-6

# SparseMatrix stores its entries in blocks of this many columns, so each
# product works on a 32 KiB slice of the column-length vector at a time,
# which stays in L1; one unblocked CSR read as CSC scatters across all of it.
BLOCK_COLS = 4096


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


def _vector(x, n):
    """``x`` as a float64 vector, or a ValueError unless it has length ``n``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {x.shape}")
    return x


class SparseMatrix:
    """Sparse matrix built from a tuple ``(i, j, v)`` of three equal-length arrays.

    ``i`` and ``j`` hold integer row and column indices; duplicate entries
    are summed as ``scipy.sparse.coo_matrix((v, (i, j)), shape).tocsr()``
    sums them. The entries are held once, as one CSR matrix per block of
    ``BLOCK_COLS`` columns: ``A x`` adds up the blocks' CSR products and
    ``A^T v`` reads each block as CSC, so both products return the bits of
    one CSR matrix and of its transposed copy. ``triplets`` returns the
    canonical (deduplicated) entries. scipy.sparse loads with the first matrix.
    """

    def __init__(self, rows, cols, triplets):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if not isinstance(triplets, tuple) or len(triplets) != 3:
            raise TypeError(f"triplets must be a tuple (i, j, v), got {type(triplets).__name__}")
        i, j, v = triplets
        i, j, v = np.asarray(i), np.asarray(j), np.asarray(v, dtype=np.float64)
        if i.dtype.kind not in "iu" or j.dtype.kind not in "iu":
            raise TypeError(f"triplet indices must be integer arrays, got {i.dtype} and {j.dtype}")
        if not i.shape == j.shape == v.shape:
            raise ValueError(f"triplet arrays differ in length: {i.size}, {j.size}, {v.size}")
        if i.size and (i.min() < 0 or i.max() >= rows or j.min() < 0 or j.max() >= cols):
            raise ValueError("triplet index out of range")
        import scipy.sparse
        csr = scipy.sparse.coo_matrix((v, (i, j)), shape=(rows, cols)).tocsr()
        self._fill(rows, cols, [(csr.data, csr.indices, csr.indptr)])

    @classmethod
    def _from_row_chunks(cls, rows, cols, chunks):
        """Assemble from CSR pieces ``(data, indices, indptr)`` covering consecutive rows."""
        return cls.__new__(cls)._fill(rows, cols, chunks)

    def _fill(self, rows, cols, chunks):
        """Store the row chunks as column blocks; the one build path of every matrix.

        ``sum_duplicates`` sorts and sums row by row, so any split of the rows
        gives the arrays of one whole CSR bit for bit. Each piece is cut into
        the column blocks and dropped, so the whole matrix is never held twice.
        """
        import scipy.sparse
        self.rows, self.cols = int(rows), int(cols)
        starts = range(0, self.cols, BLOCK_COLS)
        slices = [[] for _ in starts]
        for data, indices, indptr in chunks:
            piece = scipy.sparse.csr_matrix((data, indices, indptr),
                                            shape=(len(indptr) - 1, self.cols))
            piece.sum_duplicates()
            for c, sl in zip(starts, slices):
                sl.append(piece[:, c:c + BLOCK_COLS])
        # each block's slices are dropped as soon as the block is stacked
        self._blocks = [(c, scipy.sparse.vstack(slices.pop(0), format="csr")) for c in starts]
        if self._blocks[0][1].shape[0] != self.rows:
            raise ValueError(f"row chunks cover {self._blocks[0][1].shape[0]} rows, not {self.rows}")
        return self

    @property
    def _csr(self):
        """The whole matrix as one CSR matrix, built afresh."""
        import scipy.sparse
        return scipy.sparse.hstack([B for _, B in self._blocks], format="csr")

    @classmethod
    def identity(cls, n):
        idx = np.arange(n)
        return cls(n, n, (idx, idx, np.ones(n)))

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return sum(B.nnz for _, B in self._blocks)

    @property
    def triplets(self):
        coo = self._csr.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

    def matvec(self, x):
        x = _vector(x, self.cols)
        from scipy.sparse import _sparsetools
        y = np.zeros(self.rows)
        # scipy's CSR kernel adds each block into y, so a row sums in increasing
        # column order, as in one CSR
        for c, B in self._blocks:
            _sparsetools.csr_matvec(*B.shape, B.indptr, B.indices, B.data, x[c:c + B.shape[1]], y)
        return y

    def rmatvec(self, v):
        v = _vector(v, self.rows)
        from scipy.sparse import _sparsetools
        out = np.zeros(self.cols)
        # read as CSC, a block sums each A^T entry in increasing row order, as a transposed CSR
        for c, B in self._blocks:
            _sparsetools.csc_matvec(B.shape[1], B.shape[0], B.indptr, B.indices, B.data, v,
                                    out[c:c + B.shape[1]])
        return out

    def to_dense(self):
        return self._csr.toarray()


def matrix_op(M):
    """Wrap a :class:`SparseMatrix` as a :class:`LinearOp`."""
    return LinearOp(in_dim=M.cols, out_dim=M.rows, forward=M.matvec, adjoint=M.rmatvec)


def identity_op(n):
    """Identity operator on length-``n`` vectors."""

    def apply(x):
        return _vector(x, n).copy()

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
        img = _vector(x, hw).reshape(h, w)
        out = np.empty(2 * hw)
        dh = out[:hw].reshape(h, w)
        dv = out[hw:].reshape(h, w)
        np.subtract(img[:, 1:], img[:, :-1], out=dh[:, :-1])
        dh[:, -1] = 0.0
        np.subtract(img[1:], img[:-1], out=dv[:-1])
        dv[-1] = 0.0
        return out

    def adjoint(u):
        u = _vector(u, 2 * hw)
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
    if not 0.0 < sigma < np.inf:
        raise ValueError("sigma must be a positive finite number")
    if radius < 1 or int(radius) != radius:
        raise ValueError("radius must be a positive integer")
    h, w = int(height), int(width)
    if radius >= min(h, w):
        raise ValueError("radius must be smaller than both image dimensions")
    import scipy.ndimage
    hw = h * w
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(offs ** 2) / (2.0 * sigma ** 2))
    k1 /= k1.sum()

    def apply(x):
        img = _vector(x, hw).reshape(h, w)
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


def norm_sq_bound(op, power_seed=0):
    """Safe bound on ``lambda_max(op op^T)``: the exact ``norm_sq_hint``, or
    the power-iteration estimate inflated by ``1 + POWER_TOL``."""
    if op.norm_sq_hint is not None:
        return float(op.norm_sq_hint)
    return op_norm_sq(op, tol=POWER_TOL, seed=power_seed) * (1.0 + POWER_TOL)
