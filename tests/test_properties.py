"""Randomized property tests; skipped where ``hypothesis`` is not installed."""

import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import numpy.linalg as la
import pytest
import scipy.sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from pdfp import (  # noqa: E402
    PDState,
    Problem,
    SparseMatrix,
    StoppingRule,
    TomoGeometry,
    build_projection_matrix,
    conjugate_prox,
    constant_schedule,
    diff_op_2d,
    gaussian_blur_op,
    group_l2_norm_fn,
    identity_op,
    ifp2o,
    l1_norm_fn,
    make_problem,
    matrix_op,
    paper_ct_geometry,
    pdfp2o,
    pdfp2o_ds,
    pdfp2o_dsn,
    pdfp2o_kappa,
    pfbs_fp2o,
    quadratic_fn,
    rate_certificate,
    subgradient_prox_check,
    zero_prox_fn,
)
from pdfp import linops, solvers, tomo  # noqa: E402
from pdfp.prox import _group_ids, _Partition  # noqa: E402
from pdfp.solvers import _dual_step, _tentative  # noqa: E402
from conftest import run_differences, same_bits  # noqa: E402
from test_linops import (  # noqa: E402
    diff_adjoint_reference,
    diff_forward_reference,
    outcome_under_raise,
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


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1e300, -1e300,
            np.finfo(float).max, -np.finfo(float).max]


@settings(max_examples=300, deadline=None)
@given(h=st.integers(2, 40), w=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_diff_op_matches_the_reference_bits_and_flags_at_special_values(h, w, seed, data):
    """Signed zeros, infinities, NaN and huge finite values at row ends and inside rows:
    the flat passes give the reference's bytes and raise where it raises."""
    rng = np.random.default_rng(seed)
    D = diff_op_2d(h, w)
    x, u = with_signed_zeros(rng, h * w), with_signed_zeros(rng, 2 * h * w)
    for a in (x, u):
        rows = a.size // w
        for _ in range(data.draw(st.integers(0, 8))):
            i = data.draw(st.integers(0, rows - 1))
            j = data.draw(st.one_of(st.sampled_from([0, w - 1]), st.integers(0, w - 1)))
            a[i * w + j] = data.draw(st.sampled_from(SPECIALS))
    with np.errstate(all="ignore"):
        assert D.forward(x).tobytes() == diff_forward_reference(h, w, x).tobytes()
        assert D.adjoint(u).tobytes() == diff_adjoint_reference(h, w, u).tobytes()
    assert outcome_under_raise(D.forward, x) == outcome_under_raise(
        diff_forward_reference, h, w, x)
    assert outcome_under_raise(D.adjoint, u) == outcome_under_raise(
        diff_adjoint_reference, h, w, u)


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


def blocked(block_cols, build, *args):
    """``build(*args)`` with SparseMatrix storing blocks of ``block_cols`` columns."""
    with mock.patch.object(linops, "BLOCK_COLS", block_cols):
        return build(*args)


def assert_products_match_one_csr(M, csr, rng):
    """``M``'s products carry the bits of ``csr @ x`` and of ``csr``'s transposed copy."""
    x, v = with_signed_zeros(rng, M.cols), with_signed_zeros(rng, M.rows)
    assert M.matvec(x).tobytes() == (csr @ x).tobytes()
    assert M.rmatvec(v).tobytes() == (csr.T.tocsr() @ v).tobytes()


def assert_same_blocks(got, want):
    """Both matrices hold the same column blocks, array for array, byte for byte."""
    assert [c for c, _ in got._blocks] == [c for c, _ in want._blocks]
    for (_, B), (_, C) in zip(got._blocks, want._blocks):
        assert B.shape == C.shape
        assert_same_csr(B, C)


def row_chunks(data, indices, indptr, cuts):
    """The CSR arrays split into pieces of consecutive rows at the row numbers ``cuts``."""
    bounds = [0, *cuts, indptr.size - 1]
    for a, b in zip(bounds, bounds[1:]):
        lo, hi = indptr[a], indptr[b]
        yield data[lo:hi], indices[lo:hi], indptr[a:b + 1] - lo


# Entries fall in a random subset of the rows and of the columns, so some
# rows, columns and whole blocks stay empty, and repeat positions; their
# values span 16 orders of magnitude and include signed zeros, so any change
# in the order of summation shows in the bits. The rows are also split into
# up to 5 chunks, some with no entries and some with no rows.
@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 15), cols=st.integers(1, 15), k=st.integers(0, 60),
       block_cols=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
       cuts=st.lists(st.integers(0, 15), max_size=4))
def test_blocked_products_match_one_csr_bit_for_bit(rows, cols, k, block_cols, seed, cuts):
    rng = np.random.default_rng(seed)
    used_rows = rng.choice(rows, int(rng.integers(1, rows + 1)), replace=False)
    used_cols = rng.choice(cols, int(rng.integers(1, cols + 1)), replace=False)
    i, j = rng.choice(used_rows, k), rng.choice(used_cols, k)
    vals = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k)
    vals[rng.random(k) < 0.1] *= 0.0
    M = blocked(block_cols, SparseMatrix, rows, cols, (i, j, vals))
    assert len(M._blocks) == -(-cols // block_cols)
    want = scipy.sparse.coo_matrix((vals, (i, j)), shape=(rows, cols)).tocsr()
    want.sum_duplicates()
    assert_same_csr(M._csr, want)
    assert_products_match_one_csr(M, want, rng)
    # the same entries, in row chunks, each row in input order as coo_matrix.tocsr() keeps it
    order = np.argsort(i, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=rows))))
    pieces = row_chunks(vals[order], j[order], indptr, sorted(min(c, rows) for c in cuts))
    chunked = blocked(block_cols, SparseMatrix._from_row_chunks, rows, cols, pieces)
    assert_same_blocks(chunked, M)


def concatenated_assembly(g):
    """The projection matrix from all angles' arrays joined into one CSR
    before it is split into blocks."""
    p = g.rays_per_angle
    offs = (np.arange(p) - (p - 1) / 2.0) * g.detector_spacing
    traced = [tomo._trace_angle(g.image_side, offs, math.radians(a)) for a in g.angles_deg]
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(
        [np.bincount(ray, minlength=p) for _, _, ray in traced]))))
    return SparseMatrix._from_row_chunks(g.n_rows, g.n_cols, [(
        np.concatenate([t[0] for t in traced]),
        np.concatenate([t[1] for t in traced]).astype(np.int32), indptr)])


@pytest.mark.parametrize("block_cols", [linops.BLOCK_COLS, 1000])
def test_blocked_products_match_one_csr_on_the_ct_matrix(block_cols):
    g = paper_ct_geometry(64)
    M = blocked(block_cols, build_projection_matrix, g)
    want = projection_matrix_reference(g)
    assert_same_csr(M._csr, want)
    assert_products_match_one_csr(M, want, np.random.default_rng(5))
    assert_same_blocks(M, blocked(block_cols, concatenated_assembly, g))


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
    # a rectangular draw also goes in as an (n_groups, size) integer array
    forms = [groups]
    if len({len(g) for g in groups}) == 1:
        forms += [np.array(groups, dtype=dt).reshape(len(groups), -1)
                  for dt in (np.int64, np.int32)]
    try:
        want = group_ids_reference(6, groups)
    except ValueError as exc:
        for form in forms:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _group_ids(6, form)
    else:
        for form in forms:
            np.testing.assert_array_equal(_group_ids(6, form), want)


# Exact 0 and 90 degrees sit beside arbitrary angles, with odd and even ray
# counts; ray offsets of up to 39.5 * 2.5 pixels from the center of a 2- to
# 24-pixel image make many rays miss it. Angles within about 1e-300 degrees
# of 0 make 1/d overflow to inf in the new and the per-ray assembly alike;
# the matrices still have to agree bit for bit. Blocks of 1 to 600 columns
# split one angle's rows into up to 576 blocks, each of which must hold the
# reference's columns byte for byte.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 24),
       angles=st.lists(st.sampled_from([0.0, 90.0])
                       | st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=6),
       rays=st.integers(1, 80), spacing=st.floats(0.25, 2.5), block_cols=st.integers(1, 600))
@example(n=3, angles=[0.0, 90.0, 30.0], rays=12, spacing=1.5, block_cols=2)
def test_projection_matrix_matches_per_ray_reference(n, angles, rays, spacing, block_cols):
    g = TomoGeometry(image_side=n, angles_deg=tuple(angles), rays_per_angle=rays,
                     detector_spacing=spacing)
    want = projection_matrix_reference(g)
    M = blocked(block_cols, build_projection_matrix, g)
    assert_same_csr(M._csr, want)
    assert [c for c, _ in M._blocks] == list(range(0, g.n_cols, block_cols))
    for c, B in M._blocks:
        assert_same_csr(B, want[:, c:c + block_cols])


# conj_proj, the in-place ``w - prox(t, w)``, for the three norms that
# provide it; the group-l2 norm in its strided layout (group g is
# {g, g + G, ...}) and on partitions only np.bincount serves.
CONJ_KINDS = ["zero", "l1", "group-strided", "group-bincount"]
EPS = np.finfo(np.float64).eps
SUBNORMAL = np.finfo(np.float64).smallest_subnormal
entries = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
steps = st.floats(1e-3, 1e3)
weights = st.floats(1e-2, 1e2)


def draw_groups(data, kind):
    """``(dim, groups)`` for a group-l2 kind, or ``(dim, None)``."""
    if kind == "group-strided":
        G, size = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
        return G * size, [tuple(range(k, G * size, G)) for k in range(G)]
    dim = data.draw(st.integers(1, 24))
    if kind != "group-bincount":
        return dim, None
    perm = data.draw(st.permutations(range(dim)))
    cuts = sorted(data.draw(st.sets(st.integers(1, dim - 1), max_size=dim - 1))) if dim > 1 else []
    groups = [perm[a:b] for a, b in zip([0] + cuts, cuts + [dim])]
    assume(_Partition(dim, groups).rows is None)
    return dim, groups


def draw_conj_case(data, kind):
    """``(f, groups, weight, t, w)``: a norm with ``conj_proj``, its partition
    (None for zero and l1), its weight, a step and a finite vector."""
    dim, groups = draw_groups(data, kind)
    weight = data.draw(weights)
    if kind == "zero":
        f = zero_prox_fn(dim)
    elif kind == "l1":
        f = l1_norm_fn(dim, weight=weight)
    else:
        f = group_l2_norm_fn(dim, groups, weight=weight)
    w = data.draw(arrays(np.float64, dim, elements=entries))
    return f, groups, weight, data.draw(steps), w


# Rectangular partitions: the strided layout of the isotropic TV pairing
# and shuffled ones that only np.bincount serves.
@settings(max_examples=100, deadline=None)
@given(G=st.integers(1, 8), size=st.integers(1, 4), strided=st.booleans(),
       t=steps, weight=weights, seed=st.integers(0, 2 ** 32 - 1))
def test_group_l2_norm_fn_from_an_array_matches_tuples_bit_for_bit(G, size, strided, t,
                                                                   weight, seed):
    rng = np.random.default_rng(seed)
    dim = G * size
    order = np.arange(dim) if strided else rng.permutation(dim)
    arr = order.reshape(size, G).T
    f_arr = group_l2_norm_fn(dim, arr, weight=weight)
    f_tup = group_l2_norm_fn(dim, [tuple(int(k) for k in row) for row in arr], weight=weight)
    z = with_signed_zeros(rng, dim)
    assert f_arr.value(z) == f_tup.value(z)
    assert f_arr.prox(t, z).tobytes() == f_tup.prox(t, z).tobytes()
    assert f_arr.conj_proj(t, z.copy()).tobytes() == f_tup.conj_proj(t, z.copy()).tobytes()


@pytest.mark.parametrize("kind", CONJ_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_conj_proj_is_w_minus_prox_in_place(kind, data):
    f, _, _, t, w = draw_conj_case(data, kind)
    want = w - f.prox(t, w)
    got = w.copy()
    assert f.conj_proj(t, got) is got
    tol = 4.0 * np.spacing(float(np.max(np.abs(w))))
    assert np.all(np.abs(got - want) <= tol)
    if kind == "zero":  # w - w: the bits of w - prox(t, w), signed zeros included
        assert got.tobytes() == want.tobytes()
    # into a strided view of a larger buffer, leaving the rest alone
    buf = np.full(2 * w.size, 7.0)
    view = buf[::2]
    view[:] = w
    assert f.conj_proj(t, view) is view
    assert buf[::2].tobytes() == got.tobytes()
    assert np.all(buf[1::2] == 7.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_l1_conj_proj_lies_in_the_box_exactly(data):
    f, _, weight, t, w = draw_conj_case(data, "l1")
    assert np.all(np.abs(f.conj_proj(t, w)) <= t * weight)


def one_long_group_case():
    """``draw_conj_case``'s tuple for a case hypothesis found: one group of 12
    entries whose projection ``la.norm`` put 7 ulps (5 eps) over its radius
    ``t * weight = 0.01171875``."""
    groups = [tuple(range(12))]
    return (group_l2_norm_fn(12, groups, weight=0.75), groups, 0.75, 0.015625,
            np.array([377772.0] + [1.90234375] * 11))


@pytest.mark.parametrize("kind", ["group-strided", "group-bincount"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)  # one_long_group_case()
def test_group_conj_proj_lies_in_the_balls(kind, data):
    f, groups, weight, t, w = one_long_group_case() if data is None else draw_conj_case(data, kind)
    r = f.conj_proj(t, w)
    for g in groups:
        # First-order rounding bound for a group of n entries, u = eps / 2 per
        # operation: the group's norm sums n squares (n u) and takes a root
        # (half that, plus u); the scale t / ||w_g|| and each product add u;
        # la.norm measures the result with n u / 2 + u more. In all,
        # (n / 2 + 2) eps, which is the 4 eps of the strided layouts and TV
        # pairs at 4 entries; no fixed multiple of eps bounds every n.
        slack = max(4.0, len(g) / 2.0 + 2.0) * EPS
        assert la.norm(r[list(g)]) <= t * weight * (1.0 + slack)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", CONJ_KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_conj_proj_keeps_non_finite_entries_non_finite(kind, bad, data):
    f, _, weight, t, w = draw_conj_case(data, kind)
    i = data.draw(st.integers(0, w.size - 1))
    w[i] = bad
    r = f.conj_proj(t, w)
    if kind == "l1" and not math.isnan(bad):
        # the projection of +-inf onto [-c, c] is +-c; the next primal
        # x' = z - l D^T v' keeps the inf that made it, so a run still
        # stops as diverged (tests/test_solvers.py)
        assert r[i] == math.copysign(t * weight, bad)
    else:
        assert np.isnan(r[i])


@pytest.mark.parametrize("kind", CONJ_KINDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dual_step_without_conj_proj_keeps_the_prox_bits(kind, data):
    f, _, _, t, Dy = draw_conj_case(data, kind)
    v = data.draw(arrays(np.float64, Dy.size, elements=entries))
    inputs = [a.copy() for a in (Dy, v)]
    plain = dataclasses.replace(f, conj_proj=None)
    w = Dy + v
    assert _dual_step(plain, t, Dy, v).tobytes() == (w - f.prox(t, w)).tobytes()
    assert _dual_step(f, t, Dy, v).tobytes() == f.conj_proj(t, w.copy()).tobytes()
    for a, b in zip((Dy, v), inputs):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       gamma_frac=st.floats(0.01, 0.99), lam_frac=st.floats(0.01, 1.0),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_dual_step_in_the_y_form_is_the_papers_within_rounding(rows, cols, seed, gamma_frac,
                                                                lam_frac, scale):
    """The kernel's ``v' = (I - prox)(D y + v)`` with ``y = z - l D^T v``
    against the paper's ``(I - prox)(D z + (v - l D D^T v))``, and its
    ``x' = z - l D^T v'``. Both forms round the exact ``w`` by at most
    ``u (r + 2)|D||z| + u (r + s + 3) l |D||D|^T|v| + u |v|`` (the paper's:
    ``r + 1``, ``r + s + 3`` and 2), to first order in the unit roundoff
    ``u``, with ``r`` and ``s`` the longest row and column of ``D`` (the
    longest sums of ``D`` and ``D^T``). Their difference is within the sum,
    under ``c = 2 (r + s + 3)``, plus 2 for the higher-order terms; the l1
    projection is 1-Lipschitz in each entry, so ``v'`` keeps that bound.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < 0.5
    assume(mask.any())
    i, j = np.nonzero(mask)
    dense = np.zeros((rows, cols))
    dense[i, j] = rng.uniform(-2.0, 2.0, i.size)
    D = matrix_op(SparseMatrix(rows, cols, (i, j, dense[i, j])))
    p = make_problem(l1_norm_fn(rows, weight=rng.uniform(0.01, 1.0)),
                     quadratic_fn(identity_op(cols), scale * rng.standard_normal(cols)), D)
    g, l = 2.0 * p.beta * gamma_frac, p.lambda_hi * lam_frac
    v, x = scale * rng.standard_normal(rows), scale * rng.standard_normal(cols)
    grad = p.f2.grad(x)
    vt, xt, Dt_vt, k = _tentative(p, g, l, v, x, grad)
    z = x - g * grad
    paper = p.f1.conj_proj(g / l, D.forward(z) + (v - l * D.forward(D.adjoint(v))))
    r, s = np.bincount(i).max(), np.bincount(j).max()
    u, absD = EPS / 2.0, np.abs(dense)
    bound = 2 * (r + s + 4) * u * (absD @ (np.abs(z) + l * (absD.T @ np.abs(v))) + np.abs(v))
    assert np.all(np.abs(vt - paper) <= bound)
    assert k == 1 and Dt_vt.tobytes() == D.adjoint(vt).tobytes()
    assert xt.tobytes() == (z - l * Dt_vt).tobytes()


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), diff=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), alpha=st.floats(0.0, 0.95),
       gamma_frac=st.floats(0.01, 0.99), steps=st.integers(50, 200))
def test_carried_adjoint_drifts_within_the_rounding_of_a_relaxed_step(rows, cols, diff, seed,
                                                                       alpha, gamma_frac, steps):
    """The kernel carries ``D^T v`` through relaxed steps as the Mann step
    of the two ``D^T``, not by applying ``D^T``. Against a fresh ``D^T v``
    its error obeys ``e' = alpha e + delta``, where one step's rounding
    ``delta`` is at most ``(2 s + 4) u M`` to first order: ``s`` is the
    longest column of ``D`` (the longest sum of ``D^T``), ``u`` the unit
    roundoff and ``M`` the largest entry of ``|D|^T |w|`` over the run's
    iterates ``w``, which bounds ``|D^T w|`` and, unlike it, does not
    vanish by cancellation. So the drift stays below ``delta / (1 - alpha)``;
    the test allows ``c = 2 (s + 4)``.
    """
    rng = np.random.default_rng(seed)
    if diff:
        D = diff_op_2d(rows + 1, cols + 1, "anisotropic")
    else:
        mask = rng.random((rows, cols)) < 0.5
        assume(mask.any())
        i, j = np.nonzero(mask)
        D = matrix_op(SparseMatrix(rows, cols, (i, j, rng.uniform(-2.0, 2.0, i.size))))
    absD = np.abs(np.column_stack([D.forward(e) for e in np.eye(D.in_dim)]))
    p = make_problem(l1_norm_fn(D.out_dim, weight=rng.uniform(0.01, 1.0)),
                     quadratic_fn(identity_op(D.in_dim), rng.standard_normal(D.in_dim)), D)
    seen = []

    def recording(p, g, l, v, x, grad, Dt_v, *rest):
        out = _tentative(p, g, l, v, x, grad, Dt_v, *rest)
        seen.append((v.copy(), Dt_v.copy(), out[0].copy()))
        return out

    with mock.patch.object(solvers, "_tentative", recording):
        pdfp2o_kappa(p, 2.0 * p.beta * gamma_frac, p.lambda_hi, alpha,
                     stop=StoppingRule(tol=0.0, max_iter=steps))
    assert len(seen) == steps
    s = int(np.count_nonzero(absD, axis=0).max())
    M = max(float(np.max(absD.T @ np.abs(w))) for v, _, vt in seen for w in (v, vt))
    bound = 2 * (s + 4) * (EPS / 2.0) * M / (1.0 - alpha)
    drift = max(float(np.max(np.abs(Dt_v - D.adjoint(v)))) for v, Dt_v, _ in seen)
    assert drift <= bound
    if alpha == 0.0:  # an unrelaxed step's D^T v' is the next step's fresh D^T v
        assert drift == 0.0


# Entries whose squares are signed zeros' +0.0 or overflow, alone or in a sum.
NORM_ENTRIES = st.one_of(entries, st.sampled_from([0.0, -0.0, 1e154, -1.5e154, 1e200,
                                                   np.finfo(np.float64).max]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), G=st.integers(1, 40), step=st.integers(1, 3))
def test_strided_group_norms_match_bincount_bit_for_bit(data, rows, G, step):
    dim = rows * G
    part = _Partition(dim, [tuple(range(k, dim, G)) for k in range(G)])
    # one group goes through np.bincount: np.einsum adds a contiguous
    # column of 3 or more squares in another order
    assert part.rows == (rows if G > 1 else None)
    # step > 1 makes z a strided view of a larger buffer
    z = data.draw(arrays(np.float64, dim * step, elements=NORM_ENTRIES))[::step]
    with np.errstate(over="ignore"):
        want = np.sqrt(np.bincount(part.gid, weights=z * z, minlength=G))
    # np.einsum flags no overflow; the bincount path squares z as the reference does
    with np.errstate(over="raise" if G > 1 else "ignore"):
        got = part.norms(z)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", CONJ_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_moreau_decomposition_at_random_inputs(kind, data):
    """``z = prox_{t f}(z) + t prox_{f*/t}(z/t)`` up to rounding; among
    subnormals, up to a few of their spacings, scaled by ``t``."""
    f, _, _, t, z = draw_conj_case(data, kind)
    rebuilt = f.prox(t, z) + t * conjugate_prox(f, 1.0 / t, z / t)
    slack = 16.0 * EPS * float(np.max(np.abs(z))) + 8.0 * max(t, 1.0) * SUBNORMAL
    assert np.all(np.abs(rebuilt - z) <= slack)


@pytest.mark.parametrize("kind", CONJ_KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_prox_satisfies_the_subgradient_inequality_at_random_inputs(kind, data, seed):
    f, _, weight, t, z = draw_conj_case(data, kind)
    # rounding slack: the probes reach about 6 (1 + max|z|) per entry, and
    # y = (z - x)/t is within weight of zero, give or take eps |z| / t
    scale = 1.0 + float(np.max(np.abs(z)))
    slack = 1e-13 * z.size * scale * (weight + scale / t)
    assert subgradient_prox_check(f, t, z, seed=seed, tol=slack)


# gamma / (2 beta): the bulk of the range, and the top window above the
# 2 beta (1 - 1e-9) cap of a decaying schedule
GAMMA_FRACTIONS = st.one_of(
    st.floats(1e-6, 1.0 - 1e-9),
    st.floats(1.0 - 1e-9, 1.0 - 1e-12, exclude_min=True, exclude_max=True),
)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(2, 10), w=st.integers(2, 10), isotropic=st.booleans(),
       weight=st.floats(1e-3, 1.0), gamma_frac=GAMMA_FRACTIONS,
       lam_frac=st.floats(1e-6, 1.0, exclude_min=True),
       kappa=st.floats(0.0, 0.95, exclude_min=True), seed=st.integers(0, 2 ** 32 - 1))
def test_collapse_identities_at_random_sizes_and_steps(h, w, isotropic, weight, gamma_frac,
                                                       lam_frac, kappa, seed):
    rng = np.random.default_rng(seed)
    hw = h * w
    f1 = (group_l2_norm_fn(2 * hw, [(k, hw + k) for k in range(hw)], weight=weight)
          if isotropic else l1_norm_fn(2 * hw, weight=weight))
    variant = "isotropic-pair" if isotropic else "anisotropic"
    p = make_problem(f1, quadratic_fn(identity_op(hw), rng.random(hw)), diff_op_2d(h, w, variant))
    gamma, lam = 2.0 * p.beta * gamma_frac, p.lambda_hi * lam_frac
    kw = dict(stop=StoppingRule(tol=0.0, max_iter=12), x_true=rng.random(hw))
    plain = pdfp2o(p, gamma, lam, **kw)
    ds = pdfp2o_ds(p, constant_schedule(gamma, lam, problem=p), **kw)
    assert not run_differences(ds, plain)
    dsn = pdfp2o_dsn(p, constant_schedule(gamma, lam, 0.0, problem=p), **kw)
    assert not run_differences(dsn, ds)
    assert not run_differences(pdfp2o_kappa(p, gamma, lam, 0.0, **kw), plain)
    # one warm inner step at kappa 0 is pdfp2o's step; only the inner count is extra
    one_step = pfbs_fp2o(p, gamma, lam, 0.0, StoppingRule(tol=0.0, max_iter=1), **kw)
    assert not run_differences(one_step, plain, skip=("inner_iters",))
    assert one_step[1].inner_iters.tolist() == [1] * 12
    assert_ifp2o_is_pdfp2o_kappa_at_beta(p, weight, lam, kappa, kw)


def assert_ifp2o_is_pdfp2o_kappa_at_beta(p, weight, lam, kappa, kw):
    """``ifp2o`` at ``Q = I`` against ``pdfp2o_kappa`` at ``gamma = beta = 1`` from
    ``x0 = b``, on an identity-data problem whose ``D`` is a ``diff_op_2d``.

    In exact arithmetic the two are one iteration. In floating point
    ``pdfp2o_kappa`` forms ``b`` as ``z = x - (x - b)`` and relaxes ``x``, where
    ``ifp2o`` relaxes ``v`` and solves ``x = b - lam D^T v`` exactly (the
    Cholesky factor of ``I`` is ``I``). So they agree within rounding. With
    ``u`` the unit roundoff, ``n`` steps, ``N`` pixels, ``m`` rows of ``D`` and
    ``S = max(|b|, |x_k|)`` over the run:

    * ``x``: a step rounds ``x`` by at most ``(s + 4) u S`` in each run, where
      ``s = 4`` bounds the terms of an entry of ``D^T v``; the relaxed step is
      nonexpansive, so the runs end at most ``d = 2 n (s + 4) u S`` apart.
    * objective: ``ifp2o``'s cancels ``0.5 x.x - b.x`` against ``0.5 b.b``. Its
      sums of at most ``m`` terms round within ``m u`` of their terms'
      magnitudes, which are at most 6 times ``0.5 ||b||^2 + max|objective|``,
      and ``x``'s difference moves it by at most
      ``(max_k ||x_k - b||_1 + 2 m weight + N d) d``.
    * SNR: ``x``'s difference moves ``20 log10(||x_true|| / ||x - x_true||)`` by
      at most ``(20 / ln 10) sqrt(N) d / ||x - x_true||``, and the logarithm's
      argument rounds within ``8 u``.
    * ``lams`` and ``alphas`` hold ``lam`` and ``kappa``, bit for bit.

    ``gammas`` (NaN against ``beta``) and ``residuals`` (``||H(v) - v||``
    against the lambda-norm of the state change) mean different things.
    """
    u = np.finfo(float).eps / 2
    b, m = p.f2.b, p.D.out_dim
    x, tr = ifp2o(np.eye(b.size), b, p.f1, p.D, lam, kappa, **kw)
    ref, ref_tr = pdfp2o_kappa(p, p.beta, lam, kappa, u0=PDState(np.zeros(m), b),
                               record_iterates=True, **kw)
    xs = np.array([it.x for it in ref_tr.iterates])
    d = 2 * tr.n_iter * (4 + 4) * u * max(np.abs(b).max(), np.abs(xs).max())
    assert np.abs(x - ref.x).max() <= d
    scale = 0.5 * (b @ b) + np.abs(tr.objectives).max()
    slope = np.abs(xs - b).sum(axis=1).max() + 2 * m * weight + b.size * d
    assert np.abs(tr.objectives - ref_tr.objectives).max() <= 6 * m * u * scale + slope * d
    dist = np.sqrt(ref_tr.relerrs) * np.linalg.norm(kw["x_true"])
    snr_tol = 20 / math.log(10) * (math.sqrt(b.size) * d / dist + 8 * u)
    assert (np.abs(tr.snrs - ref_tr.snrs) <= snr_tol).all()
    assert same_bits(tr.lams, ref_tr.lams) and same_bits(tr.alphas, ref_tr.alphas)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40_000), step=st.integers(1, 3), cut=st.integers(0, 40_000),
       scale=st.integers(-100, 100), seed=st.integers(0, 2 ** 32 - 1))
def test_dot_and_norm_stay_within_the_summation_bound_of_fsum(n, step, cut, scale, seed):
    # any order of n adds keeps |dot - exact| <= n eps sum|a_i b_i|; step > 1 reads
    # strided views
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(n * step) * 2.0 ** scale)[::step]
    b = rng.standard_normal(n * step)[::step]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, got_norm = linops.dot(a, b), linops.norm(a)
        got_split = linops.norm(a[:cut], a[cut:])
    exact = math.fsum((a * b).tolist())
    assert abs(got - exact) <= n * EPS * math.fsum(np.abs(a * b).tolist())
    exact_norm = math.sqrt(math.fsum((a * a).tolist()))
    for value in (got_norm, got_split):
        assert abs(value - exact_norm) <= (n + 1) * EPS * exact_norm


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40_000), bad=st.sampled_from([math.inf, -math.inf, math.nan, 1e300]),
       data=st.data())
def test_dot_and_norm_of_a_blown_up_vector_are_not_finite(n, bad, data):
    # _drive stops as "diverged" on a change that is not finite, so a norm
    # must not come out finite once an entry is; 1e300 squared overflows,
    # which must not raise a RuntimeWarning either
    a = np.ones(n)
    a[data.draw(st.integers(0, n - 1))] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not math.isfinite(linops.dot(a, a))
        assert not math.isfinite(linops.norm(np.ones(3), a))
