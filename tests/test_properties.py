"""Randomized property tests; skipped where ``hypothesis`` is not installed."""

import dataclasses
import math
import re

import numpy as np
import numpy.linalg as la
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from pdfp import (  # noqa: E402
    Problem,
    SparseMatrix,
    TomoGeometry,
    build_projection_matrix,
    diff_op_2d,
    gaussian_blur_op,
    group_l2_norm_fn,
    identity_op,
    l1_norm_fn,
    matrix_op,
    quadratic_fn,
    rate_certificate,
    zero_prox_fn,
)
from pdfp.prox import _group_ids, _Partition  # noqa: E402
from pdfp.solvers import _dual_step  # noqa: E402
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


# conj_proj, the in-place ``w - prox(t, w)``, for the three norms that
# provide it; the group-l2 norm in its strided layout (group g is
# {g, g + G, ...}) and on partitions only np.bincount serves.
CONJ_KINDS = ["zero", "l1", "group-strided", "group-bincount"]
EPS = np.finfo(np.float64).eps
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


@pytest.mark.parametrize("kind", ["group-strided", "group-bincount"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_conj_proj_lies_in_the_balls(kind, data):
    f, groups, weight, t, w = draw_conj_case(data, kind)
    r = f.conj_proj(t, w)
    for g in groups:
        assert la.norm(r[list(g)]) <= t * weight * (1.0 + 4.0 * EPS)


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
@given(data=st.data(), l=st.floats(0.01, 1.0))
def test_dual_step_without_conj_proj_keeps_the_prox_bits(kind, data, l):
    f, _, _, t, Dz = draw_conj_case(data, kind)
    v, DDt_v = (data.draw(arrays(np.float64, Dz.size, elements=entries)) for _ in range(2))
    inputs = [a.copy() for a in (Dz, v, DDt_v)]
    plain = dataclasses.replace(f, conj_proj=None)
    w = Dz + (v - l * DDt_v)
    assert _dual_step(plain, t, l, Dz, v, DDt_v).tobytes() == (w - f.prox(t, w)).tobytes()
    assert _dual_step(f, t, l, Dz, v, DDt_v).tobytes() == f.conj_proj(t, w.copy()).tobytes()
    for a, b in zip((Dz, v, DDt_v), inputs):
        assert a.tobytes() == b.tobytes()
