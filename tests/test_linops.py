import re
import tracemalloc

import numpy as np
import numpy.linalg as la
import pytest
import scipy.sparse

from pdfp import (
    PowerIterationError,
    SparseMatrix,
    build_projection_matrix,
    diff_op_2d,
    gaussian_blur_op,
    identity_op,
    matrix_op,
    op_norm_sq,
    paper_ct_geometry,
)


def dense_of(op):
    return np.column_stack([op.forward(e) for e in np.eye(op.in_dim)])


class TestDiffOp2D:
    def test_2x2_matches_hand_matrix(self):
        # image [a, b; c, d]: horizontal diffs [b-a, 0, d-c, 0],
        # vertical diffs [c-a, d-b, 0, 0]
        a, b, c, d = 1.0, 2.5, -3.0, 4.0
        D = diff_op_2d(2, 2)
        out = D.forward(np.array([a, b, c, d]))
        expected = np.array([b - a, 0.0, d - c, 0.0, c - a, d - b, 0.0, 0.0])
        np.testing.assert_array_equal(out, expected)
        M = np.array([
            [-1, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, -1, 1],
            [0, 0, 0, 0],
            [-1, 0, 1, 0],
            [0, -1, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ], dtype=float)
        np.testing.assert_allclose(dense_of(D), M, atol=0)

    def test_constant_image_maps_to_zero(self):
        D = diff_op_2d(5, 7)
        out = D.forward(np.full(35, 3.7))
        assert np.all(out == 0.0)

    def test_adjoint_consistency_random(self):
        rng = np.random.default_rng(0)
        D = diff_op_2d(3, 3)
        for _ in range(20):
            x = rng.standard_normal(9)
            v = rng.standard_normal(18)
            lhs = float(D.forward(x) @ v)
            rhs = float(x @ D.adjoint(v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            diff_op_2d(1, 4)
        with pytest.raises(ValueError):
            diff_op_2d(4, 1)
        with pytest.raises(ValueError):
            diff_op_2d(4, 4, variant="bogus")

    def test_norm_hint_matches_dense_spectrum(self):
        for h, w in ((2, 2), (3, 4), (4, 4), (5, 3)):
            D = diff_op_2d(h, w)
            M = dense_of(D)
            lmax = la.eigvalsh(M.T @ M).max()
            assert D.norm_sq_hint == pytest.approx(lmax, rel=1e-12)
            assert D.norm_sq_hint <= 8.0


def diff_forward_reference(h, w, x):
    """``diff_op_2d`` forward written plainly: two zeroed blocks, then concatenated."""
    img = x.reshape(h, w)
    dh = np.zeros((h, w))
    dh[:, :-1] = img[:, 1:] - img[:, :-1]
    dv = np.zeros((h, w))
    dv[:-1, :] = img[1:, :] - img[:-1, :]
    return np.concatenate([dh.ravel(), dv.ravel()])


def diff_adjoint_reference(h, w, u):
    """``diff_op_2d`` adjoint written plainly: four passes accumulating into zeros."""
    p = u[:h * w].reshape(h, w)
    q = u[h * w:].reshape(h, w)
    out = np.zeros((h, w))
    out[:, :-1] -= p[:, :-1]
    out[:, 1:] += p[:, :-1]
    out[:-1, :] -= q[:-1, :]
    out[1:, :] += q[:-1, :]
    return out.ravel()


def with_signed_zeros(rng, n):
    """Normal draws with about a third of the entries set to +0.0 or -0.0."""
    z = rng.standard_normal(n)
    z[rng.random(n) < 0.35] = 0.0
    z[rng.random(n) < 0.5] *= -1.0
    return z


def outcome_under_raise(f, *args):
    """``f(*args)``'s bytes, or the message of the floating-point error it
    raises under ``np.errstate(all="raise")``."""
    with np.errstate(all="raise"):
        try:
            return f(*args).tobytes()
        except FloatingPointError as e:
            return str(e)


class TestDiffOpAgainstReference:
    @pytest.mark.parametrize("h,w", [(2, 2), (3, 5), (7, 4)])
    def test_bit_identical_with_signed_zeros(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        D = diff_op_2d(h, w)
        for _ in range(20):
            x = with_signed_zeros(rng, h * w)
            u = with_signed_zeros(rng, 2 * h * w)
            assert D.forward(x).tobytes() == diff_forward_reference(h, w, x).tobytes()
            assert D.adjoint(u).tobytes() == diff_adjoint_reference(h, w, u).tobytes()

    @pytest.mark.parametrize("left,right", [(-1e308, 1e308), (-1e300, np.finfo(float).max),
                                            (np.inf, np.inf), (np.nan, 1.0)])
    def test_row_ends_raise_the_flags_of_the_reference(self, left, right):
        # a flat pass pairs each row's last entry with the next row's first;
        # that pair overflows, or is invalid, where the reference computes nothing
        h, w = 3, 4
        D = diff_op_2d(h, w)
        x, u = np.zeros(h * w), np.zeros(2 * h * w)
        x[w - 1], x[w] = left, right
        u[w - 1], u[w] = right, left
        assert outcome_under_raise(D.forward, x) == outcome_under_raise(
            diff_forward_reference, h, w, x)
        assert outcome_under_raise(D.adjoint, u) == outcome_under_raise(
            diff_adjoint_reference, h, w, u)

    def test_all_negative_zero_input(self):
        D = diff_op_2d(3, 5)
        x, u = np.full(15, -0.0), np.full(30, -0.0)
        assert D.forward(x).tobytes() == diff_forward_reference(3, 5, x).tobytes()
        assert D.adjoint(u).tobytes() == diff_adjoint_reference(3, 5, u).tobytes()


class TestSparseMatrix:
    def test_identity_matvec(self):
        M = SparseMatrix.identity(3)
        np.testing.assert_array_equal(M.matvec(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_row_vector_and_adjoint(self):
        M = SparseMatrix(1, 2, ([0, 0], [0, 1], [1.0, 1.0]))
        np.testing.assert_array_equal(M.matvec(np.array([2.0, 3.0])), [5.0])
        np.testing.assert_array_equal(M.rmatvec(np.array([1.0])), [1.0, 1.0])

    def test_random_matches_dense_product(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((5, 4))
        i, j = np.nonzero(dense)
        M = SparseMatrix(5, 4, (i, j, dense[i, j]))
        x = rng.standard_normal(4)
        np.testing.assert_allclose(M.matvec(x), dense @ x, rtol=1e-13)
        v = rng.standard_normal(5)
        np.testing.assert_allclose(M.rmatvec(v), dense.T @ v, rtol=1e-13)

    def test_duplicate_triplets_are_summed(self):
        M = SparseMatrix(2, 2, ([0, 0, 1], [0, 0, 1], [1.0, 2.5, 1.0]))
        np.testing.assert_allclose(M.to_dense(), [[3.5, 0.0], [0.0, 1.0]])

    def test_duplicates_sum_as_a_coo_matrix_does(self):
        # unsorted rows and columns, repeats of up to five entries per position
        # and values of mixed magnitude, so the summation order shows in the bits
        rng = np.random.default_rng(7)
        i, j = rng.integers(0, 6, 300), rng.integers(0, 5, 300)
        v = rng.standard_normal(300) * 10.0 ** rng.integers(-8, 9, 300)
        want = scipy.sparse.coo_matrix((v, (i, j)), shape=(7, 5)).tocsr()
        want.sum_duplicates()
        got = SparseMatrix(7, 5, (i, j, v))._csr
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, ([2], [0], [1.0]))
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, ([0], [-1], [1.0]))

    def test_triplet_arrays_of_different_lengths_rejected(self):
        # a longer value array was cut short, a longer column array ignored
        # and a longer row array failed with a bare IndexError
        for trip in (([0], [0], [1.0, 2.0]), ([0], [0, 1], [1.0]), ([0, 1], [0], [1.0])):
            with pytest.raises(ValueError, match="differ in length"):
                SparseMatrix(2, 2, trip)

    def test_non_integer_indices_rejected(self):
        # a float row index 1.7 was cast to row 1, and a tuple of three
        # (i, j, v) triplets was read as the three arrays
        for trip in ((np.array([0.0, 1.7]), [0, 1], [1.0, 2.0]),
                     ([0, 1], np.array([0.0, 1.0]), [1.0, 2.0]),
                     ((0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0))):
            with pytest.raises(TypeError, match="integer arrays"):
                SparseMatrix(3, 3, trip)

    def test_triplets_must_be_a_tuple(self):
        # a list of three integer triplets was read as the three arrays and
        # built [[0, 2, 0], [0, 0, 3], [0, 0, 0]]
        for trip in ([(0, 0, 1), (1, 1, 2), (2, 0, 3)], [[0, 1], [0, 1], [1.0, 2.0]],
                     np.array([[0, 1], [0, 1], [1, 2]]), ([0, 1], [0, 1])):
            with pytest.raises(TypeError, match=r"must be a tuple \(i, j, v\)"):
                SparseMatrix(3, 3, trip)

    def test_adjoint_product_keeps_no_copy_of_the_matrix(self):
        # A^T reads the arrays A reads; a cached transpose would hold
        # 12 bytes per entry (a value and a column index) for good
        M = build_projection_matrix(paper_ct_geometry(64))
        assert M.nnz == 93472
        v = np.random.default_rng(3).standard_normal(M.rows)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            M.rmatvec(v)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < M.nnz

    def test_matvec_dimension_mismatch(self):
        M = SparseMatrix.identity(3)
        with pytest.raises(ValueError):
            M.matvec(np.ones(4))
        with pytest.raises(ValueError):
            matrix_op(M).adjoint(np.ones(2))


class TestOpNormSq:
    def test_identity_is_one(self):
        assert op_norm_sq(identity_op(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_matrix(self):
        M = SparseMatrix(2, 2, ([0, 1], [0, 1], [1.0, 3.0]))
        assert op_norm_sq(matrix_op(M)) == pytest.approx(9.0, rel=1e-6)

    def test_diff_4x4_matches_dense_eigendecomposition(self):
        D = diff_op_2d(4, 4)
        M = dense_of(D)
        lmax = la.eigvalsh(M.T @ M).max()
        assert op_norm_sq(D) == pytest.approx(lmax, rel=1e-5)

    def test_diff_16x16_lands_in_classical_band(self):
        # the grid Laplacian spectrum approaches its classical bound of 8
        assert 7.2 < op_norm_sq(diff_op_2d(16, 16)) <= 8.0

    def test_zero_operator_returns_zero(self):
        Z = matrix_op(SparseMatrix(3, 4, (np.zeros(0, int), np.zeros(0, int), np.zeros(0))))
        assert op_norm_sq(Z) == 0.0

    def test_dominates_rayleigh_quotients(self):
        rng = np.random.default_rng(2)
        D = diff_op_2d(6, 6)
        est = op_norm_sq(D) * (1.0 + 1e-6)
        for _ in range(100):
            x = rng.standard_normal(36)
            x /= la.norm(x)
            y = D.forward(x)
            assert float(y @ y) <= est

    def test_nonconvergence_carries_best_estimate(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((8, 8))
        i, j = np.nonzero(dense)
        op = matrix_op(SparseMatrix(8, 8, (i, j, dense[i, j])))
        with pytest.raises(PowerIterationError) as err:
            op_norm_sq(op, tol=1e-14, max_iter=2)
        assert err.value.best_estimate > 0.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            op_norm_sq(identity_op(2), tol=0.0)


class TestGaussianBlur:
    def test_preserves_constants(self):
        A = gaussian_blur_op(6, 6, 2, 1.2)
        out = A.forward(np.full(36, 0.4))
        np.testing.assert_allclose(out, 0.4, rtol=1e-13)

    def test_self_adjoint_on_random_images(self):
        rng = np.random.default_rng(4)
        A = gaussian_blur_op(5, 5, 2, 1.0)
        for _ in range(20):
            x = rng.standard_normal(25)
            y = rng.standard_normal(25)
            lhs = float(A.forward(x) @ y)
            rhs = float(x @ A.forward(y))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_centered_impulse_reproduces_kernel_stamp(self):
        r, sigma = 2, 1.5
        A = gaussian_blur_op(9, 9, r, sigma)
        impulse = np.zeros((9, 9))
        impulse[4, 4] = 1.0
        out = A.forward(impulse.ravel()).reshape(9, 9)
        offs = np.arange(-r, r + 1)
        II, JJ = np.meshgrid(offs, offs, indexing="ij")
        kernel = np.exp(-(II ** 2 + JJ ** 2) / (2.0 * sigma ** 2))
        kernel /= kernel.sum()
        np.testing.assert_allclose(out[2:7, 2:7], kernel, rtol=1e-12)
        assert np.all(out[0, :] == 0.0) and np.all(out[:, 0] == 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gaussian_blur_op(5, 5, 2, 0.0)
        with pytest.raises(ValueError):
            gaussian_blur_op(5, 5, 0, 1.0)
        with pytest.raises(ValueError):
            gaussian_blur_op(4, 4, 4, 1.0)


def test_every_operator_rejects_an_input_of_the_wrong_length():
    M = SparseMatrix(2, 3, ([0, 1], [0, 2], [1.0, 2.0]))
    D = diff_op_2d(3, 4)
    entries = [(M.matvec, 3), (M.rmatvec, 2), (identity_op(5).forward, 5), (D.forward, 12),
               (D.adjoint, 24), (gaussian_blur_op(3, 4, 1, 1.0).forward, 12)]
    for apply, n in entries:
        for bad in (np.ones(n - 1), np.ones(n + 1), np.ones((1, n))):
            with pytest.raises(ValueError, match=f"length {n}, got shape"):
                apply(bad)
        assert apply(np.ones(n)).ndim == 1


def test_every_constructed_operator_satisfies_adjoint_and_linearity():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((6, 10))
    i, j = np.nonzero(dense)
    ops = [
        diff_op_2d(4, 5),
        gaussian_blur_op(4, 6, 1, 0.9),
        identity_op(7),
        matrix_op(SparseMatrix(6, 10, (i, j, dense[i, j]))),
    ]
    for op in ops:
        for _ in range(10):
            x = rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.in_dim)
            v = rng.standard_normal(op.out_dim)
            lhs = float(op.forward(x) @ v)
            rhs = float(x @ op.adjoint(v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
            a, b = rng.standard_normal(2)
            lin = op.forward(a * x + b * y) - a * op.forward(x) - b * op.forward(y)
            scale = max(np.linalg.norm(op.forward(x)), 1.0)
            assert np.linalg.norm(lin) <= 1e-12 * scale


# Calls refused with a ValueError, and the words that name what is wrong.
# A float side once built the operator of its int() silently.
NAMED_ERRORS = {
    "diff-height-float": (lambda: diff_op_2d(4.5, 4), "height=4.5 must be an integer"),
    "diff-width-float": (lambda: diff_op_2d(4, 4.5), "width=4.5 must be an integer"),
    "blur-height-float": (lambda: gaussian_blur_op(8.7, 8, 2, 1.5),
                          "height=8.7 must be an integer"),
    "blur-width-float": (lambda: gaussian_blur_op(8, 8.7, 2, 1.5), "width=8.7 must be an integer"),
    "matrix-dimensions": (lambda: SparseMatrix(0, 3, (np.zeros(0, int), np.zeros(0, int), [])),
                          "matrix dimensions must be positive"),
    # once numpy's "'float' object cannot be interpreted as an integer" and a
    # TypeError about "<=", which name no argument
    "matrix-rows-float": (lambda: SparseMatrix(2.5, 3, ([0], [0], [1.0])),
                          "rows=2.5 must be an integer"),
    "matrix-rows-text": (lambda: SparseMatrix("2", 3, ([0], [0], [1.0])),
                         "rows='2' must be an integer"),
    "matrix-cols-float": (lambda: SparseMatrix(2, 3.0, ([0], [0], [1.0])),
                          "cols=3.0 must be an integer"),
    # NaN passes a "<= 0" check, and would disable the extrapolation stop
    "op-norm-sq-tol-nan": (lambda: op_norm_sq(identity_op(2), tol=np.nan), "tol must be positive"),
    # an infinite tol stopped at the first extrapolation, 7.52 where the bound is 7.98
    "op-norm-sq-tol-inf": (lambda: op_norm_sq(diff_op_2d(32, 32), tol=np.inf),
                           "tol must be positive and below 1, not inf"),
    # int() of these raised OverflowError and numpy's own NaN message
    "blur-radius-inf": (lambda: gaussian_blur_op(16, 16, np.inf, 1.0),
                        "radius must be a positive integer"),
    "blur-radius-nan": (lambda: gaussian_blur_op(16, 16, np.nan, 1.0),
                        "radius must be a positive integer"),
    "row-chunks": (lambda: SparseMatrix._from_row_chunks(
        4, 2, [(np.ones(1), np.zeros(1, np.int32), np.array([0, 1, 1, 1]))]),
        "row chunks cover 3 rows, not 4"),
}


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_named_errors(case):
    call, named = NAMED_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


def test_image_sides_take_numpy_integers():
    assert diff_op_2d(np.int64(4), np.int32(5)).in_dim == 20
    assert SparseMatrix(np.int64(2), np.uint8(3), ([1], [2], [1.0])).shape == (2, 3)
    assert gaussian_blur_op(np.int64(8), np.uint8(6), 2, 1.5).in_dim == 48
