"""Randomized property tests; skipped where ``hypothesis`` is not installed."""

import math
import re

import numpy as np
import numpy.linalg as la
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from pdfp import (  # noqa: E402
    Problem,
    SparseMatrix,
    TomoGeometry,
    build_projection_matrix,
    diff_op_2d,
    gaussian_blur_op,
    identity_op,
    l1_norm_fn,
    matrix_op,
    quadratic_fn,
    rate_certificate,
)
from pdfp.prox import _group_ids  # noqa: E402
from test_linops import (  # noqa: E402
    diff_adjoint_reference,
    diff_forward_reference,
    with_signed_zeros,
)
from test_prox import group_ids_reference  # noqa: E402
from test_tomo import assert_same_csr, projection_matrix_reference  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(h=st.integers(2, 12), w=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_diff_op_adjoint_identity_and_reference_at_random_sizes(h, w, seed):
    rng = np.random.default_rng(seed)
    D = diff_op_2d(h, w)
    x = with_signed_zeros(rng, h * w)
    u = with_signed_zeros(rng, 2 * h * w)
    Dx, Dt_u = D.forward(x), D.adjoint(u)
    assert Dx.tobytes() == diff_forward_reference(h, w, x).tobytes()
    assert Dt_u.tobytes() == diff_adjoint_reference(h, w, u).tobytes()
    lhs, rhs = float(Dx @ u), float(x @ Dt_u)
    assert abs(lhs - rhs) <= 1e-12 * (la.norm(Dx) * la.norm(u) + la.norm(x) * la.norm(Dt_u))


def random_sparse(rng, rows, cols, density):
    """A ``rows x cols`` SparseMatrix with about ``density * rows * cols``
    random entries, repeats included."""
    k = int(rng.integers(0, int(density * rows * cols) + 1))
    return SparseMatrix(rows, cols, (rng.integers(0, rows, k), rng.integers(0, cols, k),
                                     rng.uniform(-2.0, 2.0, k)))


def assert_adjoint_identity(op, rng):
    x, v = rng.standard_normal(op.in_dim), rng.standard_normal(op.out_dim)
    Ax, At_v = op.forward(x), op.adjoint(v)
    assert Ax.shape == (op.out_dim,) and At_v.shape == (op.in_dim,)
    lhs, rhs = float(Ax @ v), float(x @ At_v)
    assert abs(lhs - rhs) <= 1e-12 * (la.norm(Ax) * la.norm(v) + la.norm(x) * la.norm(At_v))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 50), seed=st.integers(0, 2 ** 32 - 1))
def test_identity_op_adjoint_identity(n, seed):
    assert_adjoint_identity(identity_op(n), np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 15), cols=st.integers(1, 15), density=st.floats(0.0, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matrix_op_adjoint_identity(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    assert_adjoint_identity(matrix_op(random_sparse(rng, rows, cols, density)), rng)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(2, 12), w=st.integers(2, 12), radius=st.integers(1, 5),
       sigma=st.floats(0.2, 4.0), seed=st.integers(0, 2 ** 32 - 1))
def test_gaussian_blur_op_adjoint_identity(h, w, radius, sigma, seed):
    assume(radius < min(h, w))
    assert_adjoint_identity(gaussian_blur_op(h, w, radius, sigma), np.random.default_rng(seed))


# D is a signed, scaled partial permutation (full row rank) plus sparse
# entries. Draws with lambda_min(D D^T) below 1e-3 lambda_max are skipped
# and the dual step covers the top 90% of its range, so the comparison is
# well conditioned.
@settings(max_examples=60, deadline=None)
@given(m=st.integers(3, 12), extra=st.integers(0, 6), density=st.floats(0.0, 0.5),
       frac=st.floats(0.1, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_rate_certificate_mu_matches_dense_eigenvalues(m, extra, density, frac, seed):
    rng = np.random.default_rng(seed)
    n = m + extra
    noise = random_sparse(rng, m, n, density)
    rows, cols, vals = noise.triplets
    diag = rng.uniform(1.0, 2.0, m) * rng.choice([-1.0, 1.0], m)
    M = SparseMatrix(m, n, (np.concatenate([np.arange(m), rows]),
                            np.concatenate([rng.permutation(n)[:m], cols]),
                            np.concatenate([diag, vals])))
    Dd = M.to_dense()
    eigs = la.eigvalsh(Dd @ Dd.T)
    assume(eigs[0] >= 1e-3 * eigs[-1])
    lam = frac / eigs[-1]
    # identity data term: beta = sigma = 1 and gamma = beta make nu = 0
    p = Problem(f1=l1_norm_fn(m, weight=0.1), f2=quadratic_fn(identity_op(n), rng.standard_normal(n)),
                D=matrix_op(M), beta=1.0, lambda_max_ddt=float(eigs[-1]))
    cert = rate_certificate(p, 1.0, lam, 0.1, 0.1, sigma=1.0)
    assert cert is not None
    assert cert.mu == pytest.approx(math.sqrt(max(1.0 - lam * eigs[0], 0.0)), rel=1e-9, abs=1e-7)
    assert cert.mu ** 2 == pytest.approx(1.0 - lam * eigs[0], abs=1e-12)


# Groups of 0 to 3 indices drawn from -1..6 for a space of 6, so draws cover
# valid partitions, out-of-range indices, overlaps, repeats inside a group,
# empty groups and gaps; permutations split in two give valid partitions.
@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-1, 6), max_size=3), min_size=1, max_size=5)
       | st.permutations(range(6)).flatmap(
           lambda p: st.integers(0, 6).map(lambda k: [p[:k], p[k:]])))
def test_group_ids_matches_loop(groups):
    try:
        want = group_ids_reference(6, groups)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _group_ids(6, groups)
    else:
        np.testing.assert_array_equal(_group_ids(6, groups), want)


# Exact 0 and 90 degrees sit beside arbitrary angles; ray offsets of up to
# 9.5 * 2.5 pixels from the center of a 2- to 12-pixel image make many rays
# miss it. Angles within about 1e-300 degrees of 0 make 1/d overflow to
# inf in the new and the per-ray assembly alike; the matrices still
# have to agree bit for bit.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 12),
       angles=st.lists(st.sampled_from([0.0, 90.0])
                       | st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=4),
       rays=st.integers(1, 20), spacing=st.floats(0.25, 2.5))
def test_projection_matrix_matches_per_ray_reference(n, angles, rays, spacing):
    g = TomoGeometry(image_side=n, angles_deg=tuple(angles), rays_per_angle=rays,
                     detector_spacing=spacing)
    assert_same_csr(build_projection_matrix(g)._csr, projection_matrix_reference(g))
