"""Linear operators, spectral estimation, and the one owner of vector reductions."""

import math
import operator

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
    ``dot(forward(x), v) == dot(x, adjoint(v))``. Each returns either a
    new array or its input (or a view of it), and solvers may write into a
    new one, so neither may hand back an array it keeps. Constructors that
    know the largest eigenvalue of ``D D^T`` in closed form record it in
    ``norm_sq_hint``; consumers prefer it over power-iteration estimates.
    """

    in_dim: int
    out_dim: int
    forward: Callable
    adjoint: Callable
    tag: Optional[str] = None
    norm_sq_hint: Optional[float] = None


def dot(a, b):
    """``sum(a * b)`` over all entries, added in an order that depends on the
    length alone. ``np.einsum`` never calls BLAS, which splits long dot products
    across its threads, so the bits do not depend on the BLAS thread count.
    Every vector reduction of the package goes through here or :func:`norm`."""
    return float(np.einsum("i,i->", np.reshape(a, -1), np.reshape(b, -1)))


def norm(*parts):
    """The 2-norm of ``parts`` stacked into one vector: ``sqrt(dot(p, p) + ...)``."""
    return math.sqrt(sum(dot(p, p) for p in parts))


def _vector(x, n):
    """``x`` as a float64 vector, or a ValueError unless it has length ``n``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {x.shape}")
    return x


def _integer(value, name):
    """``value`` as an int, from a Python or numpy integer; a ValueError naming ``name`` else."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} must be an integer") from None


def _split_rows(chunk, cols, parts):
    """Append a CSR piece's entries, duplicates summed, to ``parts``: for each
    block of ``BLOCK_COLS`` columns its values, its block-relative columns and
    its entry count per row. Returns the piece's row count."""
    import scipy.sparse
    data, indices, indptr = chunk
    m, nb = len(indptr) - 1, len(parts)
    piece = scipy.sparse.csr_matrix((data, indices, indptr), shape=(m, cols))
    piece.sum_duplicates()
    # numpy sorts 8- and 16-bit integers stably by radix, keeping each
    # block's entries in row order, columns ascending
    block = (piece.indices // BLOCK_COLS).astype(np.min_scalar_type(nb - 1))
    order = np.argsort(block, kind="stable")
    # entries per block and row; a row holds at most BLOCK_COLS of a block
    key = np.repeat(np.arange(0, m * nb, nb), np.diff(piece.indptr)) + block
    counts = np.bincount(key, minlength=m * nb).astype(np.int32).reshape(m, nb).T
    ends = np.cumsum(counts.sum(axis=1))[:-1]
    for (vals, idx, nums), c, at, k in zip(parts, range(0, cols, BLOCK_COLS),
                                           np.split(order, ends), counts):
        vals.append(piece.data[at])
        idx.append(piece.indices[at] - c)
        nums.append(k)
    return m


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
        gives the arrays of one whole CSR bit for bit. A stable sort of each
        entry's block number keeps every block's entries in row order, columns
        ascending, so a block's parts join into its CSR arrays. Each piece is
        dropped once split, and each block's parts once joined, so the whole
        matrix is never held twice.
        """
        import scipy.sparse
        self.rows, self.cols = int(rows), int(cols)
        starts = range(0, self.cols, BLOCK_COLS)
        parts = [([], [], []) for _ in starts]
        n_rows = sum(_split_rows(chunk, self.cols, parts) for chunk in chunks)
        if n_rows != self.rows:
            raise ValueError(f"row chunks cover {n_rows} rows, not {self.rows}")
        # last block first: its parts were made last, so the joined arrays can
        # reuse their memory (a 256x256 CT build peaks 2.5 MB lower than in order)
        self._blocks = []
        for c in reversed(starts):
            vals, idx, nums = parts.pop()
            indptr = np.concatenate(([0], np.cumsum(np.concatenate(nums))))
            self._blocks.append((c, scipy.sparse.csr_matrix(
                (np.concatenate(vals), np.concatenate(idx), indptr),
                shape=(self.rows, min(BLOCK_COLS, self.cols - c)))))
        self._blocks.reverse()
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
    h, w = _integer(height, "height"), _integer(width, "width")
    if h < 2 or w < 2:
        raise ValueError("diff_op_2d needs height >= 2 and width >= 2")
    if variant not in ("anisotropic", "isotropic-pair"):
        raise ValueError(f"unknown variant {variant!r}")
    hw = h * w
    # Flat passes over the row-major image pair each row's last pixel with the
    # next row's first: "wrap" pairs, whose results are overwritten. While
    # every row end is at most 2**1022 in magnitude they cannot overflow or be
    # invalid; otherwise ``wrap`` skips them, so the operator raises the
    # floating-point flags of the row-by-row form, and no others.
    wrap = np.ones(hw - 1, dtype=bool)
    wrap[w - 1::w] = False

    def skip_wraps(a):
        """``where=`` for a flat pass over image ``a``: every entry while its row
        ends are at most 2**1022 in magnitude (NaN is not), else ``wrap``."""
        return True if np.abs(a.reshape(h, w)[:, ::w - 1]).max() <= 2.0 ** 1022 else wrap

    def forward(x):
        x = _vector(x, hw)
        out = np.empty(2 * hw)
        dh, dv = out[:hw], out[hw:]
        np.subtract(x[1:], x[:-1], out=dh[:-1], where=skip_wraps(x))
        dh[w - 1::w] = 0.0
        np.subtract(x[w:], x[:-w], out=dv[:-w])
        dv[-w:] = 0.0
        return out

    def adjoint(u):
        u = _vector(u, 2 * hw)
        p, q = u[:hw], u[hw:]
        # Each entry sums as (((0 - p_right) + p_left) - q_below) + q_above,
        # a fixed order; 0.0 - p, unlike -p, gives +0.0 where p is +0.0.
        out = np.subtract(0.0, p)
        out[w - 1::w] = 0.0
        np.add(out[1:], p[:-1], out=out[1:], where=skip_wraps(p))
        # column 0 has no left neighbour: drop the wrap pairs' sums
        np.subtract(0.0, p[w::w], out=out[w::w])
        out[:-w] -= q[:-w]
        out[w:] += q[:-w]
        return out

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
    if not 1 <= radius < math.inf or int(radius) != radius:
        raise ValueError("radius must be a positive integer")
    h, w = _integer(height, "height"), _integer(width, "width")
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
    the Rayleigh quotient changes by less than ``tol`` relative, with
    ``0 < tol < 1``. The zero operator returns 0. Deterministic for a given
    ``seed``.

    Raises
    ------
    PowerIterationError
        If the change criterion is not met within ``max_iter`` iterations;
        the exception carries the best estimate so far.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be positive and below 1, not {tol}")
    if D.in_dim <= D.out_dim:
        dim = D.in_dim
        B = lambda z: D.adjoint(D.forward(z))
    else:
        dim = D.out_dim
        B = lambda z: D.forward(D.adjoint(z))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    nz = norm(z)
    if nz == 0.0:
        return 0.0
    z = z / nz
    lam_prev = None
    change_prev = None
    extrap_prev = None
    lam = 0.0
    for _ in range(max_iter):
        w = B(z)
        lam = dot(z, w)
        nw = norm(w)
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
