import re

import numpy as np
import pytest

from pdfp import (
    conjugate_prox,
    group_l2_norm_fn,
    group_l2_prox,
    identity_op,
    l1_norm_fn,
    l1_prox,
    matrix_op,
    quadratic_fn,
    resolvent_identity_check,
    subgradient_prox_check,
    zero_prox_fn,
    SparseMatrix,
)
from pdfp.prox import _group_ids


def grid_search_prox_1d(t, z, f_scalar, lo=-10.0, hi=10.0, steps=2000001):
    """Brute-force scalar prox by dense grid search."""
    ys = np.linspace(lo, hi, steps)
    vals = t * f_scalar(ys) + 0.5 * (ys - z) ** 2
    return ys[np.argmin(vals)]


class TestL1Prox:
    def test_fixes_minimizer_at_origin(self):
        np.testing.assert_array_equal(l1_prox(1.0, np.zeros(3)), np.zeros(3))

    def test_small_scale_is_near_identity(self):
        z = np.array([0.3, -2.0, 5.0])
        np.testing.assert_allclose(l1_prox(1e-12, z), z, atol=1e-9)

    def test_matches_componentwise_grid_search(self):
        z = np.array([2.0, -0.5, 1.0])
        out = l1_prox(1.0, z)
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])
        for zi, oi in zip(z, out):
            brute = grid_search_prox_1d(1.0, zi, np.abs)
            assert abs(oi - brute) <= 1e-5

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            l1_prox(0.0, np.ones(2))


class TestGroupL2Prox:
    def test_small_group_shrinks_to_zero(self):
        z = np.array([0.3, -0.4])  # norm 0.5 <= t=1
        out = group_l2_prox(1.0, z, [(0, 1)])
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_singleton_groups_reduce_to_l1(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(6) * 2
        groups = [(k,) for k in range(6)]
        np.testing.assert_allclose(group_l2_prox(0.7, z, groups), l1_prox(0.7, z), atol=0)

    def test_radial_shrinkage_matches_grid_search(self):
        z = np.array([3.0, 4.0])  # norm 5
        out = group_l2_prox(1.0, z, [(0, 1)])
        np.testing.assert_allclose(out, [2.4, 3.2], rtol=1e-14)
        # radial oracle: prox lies on the ray through z, scale by grid search
        scales = np.linspace(0.0, 1.0, 1000001)
        vals = 1.0 * 5.0 * scales + 0.5 * 25.0 * (scales - 1.0) ** 2
        best = scales[np.argmin(vals)]
        np.testing.assert_allclose(out, best * z, atol=1e-5)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            group_l2_prox(1.0, np.ones(3), [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            group_l2_prox(1.0, np.ones(3), [(0, 1)])  # does not cover index 2


def group_ids_reference(dim, groups):
    """The partition check one group at a time, the reference for ``_group_ids``."""
    gid = np.full(dim, -1, dtype=np.int64)
    for g, idx in enumerate(groups):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= dim):
            raise ValueError("group index out of range")
        if np.any(gid[idx] >= 0):
            raise ValueError("groups overlap; overlapping groups are not supported")
        gid[idx] = g
    if np.any(gid < 0):
        raise ValueError("groups do not cover every index")
    return gid


def group_norms_reference(z, gid, n_groups):
    return np.sqrt(np.bincount(gid, weights=z * z, minlength=n_groups))


def group_shrink_reference(t, z, gid, n_groups):
    """Group shrinkage through ``np.bincount`` and a gather, the reference for every layout."""
    norms = group_norms_reference(z, gid, n_groups)
    scale = np.zeros(n_groups)
    nz = norms > 0.0
    scale[nz] = np.maximum(1.0 - t / norms[nz], 0.0)
    return z * scale[gid]


def strided_groups(n_groups, size):
    """Group ``g`` is ``{g, g + G, ...}``: the isotropic TV pairs when ``size = 2``."""
    return [tuple(g + n_groups * j for j in range(size)) for g in range(n_groups)]


def partitions():
    """Strided partitions (2x2, 3x5, 7x4 images; triples) and ones that are not."""
    cases = {f"tv{h}x{w}": (2 * h * w, strided_groups(h * w, 2))
             for h, w in ((2, 2), (3, 5), (7, 4))}
    cases["triples"] = (18, strided_groups(6, 3))
    cases["singletons"] = (5, strided_groups(5, 1))
    cases["adjacent_pairs"] = (12, [(2 * k, 2 * k + 1) for k in range(6)])
    cases["strided_listed_backwards"] = (12, strided_groups(6, 2)[::-1])
    cases["ragged"] = (9, [(0, 5, 8), (1,), (2, 3, 4, 6), (7,)])
    return cases


class TestGroupL2AgainstReference:
    @pytest.mark.parametrize("name", sorted(partitions()))
    def test_prox_and_value_bit_identical(self, name):
        dim, groups = partitions()[name]
        gid = group_ids_reference(dim, groups)
        f = group_l2_norm_fn(dim, groups, weight=1.3)
        rng = np.random.default_rng(len(name))
        for _ in range(20):
            z = rng.standard_normal(dim) * rng.choice([1e-3, 1.0, 1e3])
            z[rng.random(dim) < 0.3] = 0.0
            z[rng.random(dim) < 0.5] *= -1.0
            for t in (1e-3, 0.7, 1e300):
                want = group_shrink_reference(t * 1.3, z, gid, len(groups))
                assert f.prox(t, z).tobytes() == want.tobytes()
                assert group_l2_prox(t, z, groups).tobytes() == group_shrink_reference(
                    t, z, gid, len(groups)).tobytes()
            assert f.value(z) == 1.3 * float(group_norms_reference(z, gid, len(groups)).sum())

    @pytest.mark.parametrize("name", ["tv3x5", "adjacent_pairs"])
    def test_zero_and_nan_groups(self, name):
        dim, groups = partitions()[name]
        gid = group_ids_reference(dim, groups)
        f = group_l2_norm_fn(dim, groups)
        z = np.linspace(-2.0, 2.0, dim)
        z[np.asarray(groups[0])] = [0.0, -0.0]
        z[np.asarray(groups[1])] = [np.nan, -1.5]
        z[np.asarray(groups[2])] = [-0.0, -0.0]
        got = f.prox(0.5, z)
        assert got.tobytes() == group_shrink_reference(0.5, z, gid, len(groups)).tobytes()
        assert np.isnan(got[groups[1][0]]) and got[groups[1][1]] == 0.0
        assert np.isnan(f.value(z))


@pytest.mark.parametrize("groups", [
    [(0, 1), (1, 6)],          # group 1 overlaps and is out of range: range first
    [(0, 1), (1, 2), (6,)],    # overlap before a later out-of-range group
    [(0, 1, 2), (6,), (2,)],   # out of range before a later overlap
    [(0, 0, 1), (2, 3, 4, 5)], # a repeat inside one group is no overlap
    [(0, 1), (), (3, 4, 5)],   # an empty group; index 2 uncovered
    [(5,), (0, 1, 2, 3, 4)],
])
def test_group_ids_matches_loop_on_ragged_groups(groups):
    try:
        want = group_ids_reference(6, groups)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            _group_ids(6, groups)
    else:
        np.testing.assert_array_equal(_group_ids(6, groups), want)


# Indices that are not integers were once cast to int64 without a word:
# [[0.5, 2.0], [1.0, 3.0]] grouped {0, 2} and {1, 3}, so the norm of
# [3, 4, 0, 0] read 7.0, and [[True], [False]] was the partition {1}, {0}.
@pytest.mark.parametrize("dim, groups, named", [
    (4, [[0.5, 2.0], [1.0, 3.0]], "group index=0.5 must be an integer"),
    (4, [(0, 2), (1, 3.0)], "group index=3.0 must be an integer"),
    (4, np.array([[0.0, 2.0], [1.0, 3.0]]), r"group index=.*0\.0.* must be an integer"),
    (4, [np.array([0, 2]), np.array([1.0, 3.0])], r"group index=.*1\.0.* must be an integer"),
    (2, np.array([[True], [False]]), r"group index=.*True.* must be an integer"),
], ids=["list-of-floats", "one-float", "float-array", "float-array-group", "bool-array"])
def test_non_integer_group_indices_rejected(dim, groups, named):
    with pytest.raises(ValueError, match=named):
        group_l2_norm_fn(dim, groups)
    with pytest.raises(ValueError, match=named):
        group_l2_prox(1.0, np.ones(dim), groups)


def test_python_and_numpy_integer_group_indices_accepted():
    want = group_ids_reference(4, [(0, 2), (1, 3)])
    for groups in ([(np.int64(0), np.int32(2)), (np.uint8(1), 3)],
                   [np.array([0, 2], dtype=np.int8), range(1, 4, 2)],
                   np.array([[0, 2], [1, 3]], dtype=np.uint16)):
        np.testing.assert_array_equal(_group_ids(4, groups), want)


class TestConjugateProx:
    def test_l1_conjugate_is_linf_projection(self):
        f = l1_norm_fn(2)
        out = conjugate_prox(f, 1.0, np.array([2.0, -0.3]))
        np.testing.assert_allclose(out, [1.0, -0.3], atol=1e-15)

    def test_zero_maps_to_zero(self):
        f = l1_norm_fn(3)
        np.testing.assert_array_equal(conjugate_prox(f, 2.0, np.zeros(3)), np.zeros(3))

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_moreau_decomposition_is_exact(self, ratio):
        rng = np.random.default_rng(1)
        fns = [
            l1_norm_fn(8, weight=0.7),
            group_l2_norm_fn(8, [(0, 1, 2), (3, 4), (5, 6, 7)], weight=1.3),
        ]
        for f in fns:
            for _ in range(50):
                z = rng.standard_normal(8) * 3
                v_plus = f.prox(ratio, z)
                v_minus = ratio * conjugate_prox(f, 1.0 / ratio, z / ratio)
                assert np.linalg.norm(z - (v_plus + v_minus)) <= 1e-12


class TestResolventIdentity:
    def test_equal_scales_give_zero(self):
        f = l1_norm_fn(4)
        z = np.array([1.0, -2.0, 0.3, 0.0])
        assert resolvent_identity_check(f, 1.5, 1.5, z) == 0.0

    def test_l1_at_distinct_scales(self):
        rng = np.random.default_rng(2)
        f = l1_norm_fn(6)
        for _ in range(20):
            assert resolvent_identity_check(f, 2.0, 0.5, rng.standard_normal(6)) <= 1e-12

    def test_group_prox_at_distinct_scales(self):
        rng = np.random.default_rng(3)
        f = group_l2_norm_fn(6, [(0, 1, 2), (3, 4, 5)])
        for _ in range(20):
            assert resolvent_identity_check(f, 1.0, 3.0, rng.standard_normal(6)) <= 1e-12


class TestSubgradientProxCheck:
    def test_soft_threshold_point_passes(self):
        f = l1_norm_fn(1)
        assert subgradient_prox_check(f, 1.0, np.array([2.0]))

    def test_origin_passes_trivially(self):
        f = l1_norm_fn(3)
        assert subgradient_prox_check(f, 1.0, np.zeros(3))

    def test_perturbed_point_fails(self):
        f = l1_norm_fn(1)
        z = np.array([2.0])
        x_bad = f.prox(1.0, z) + 0.1
        assert not subgradient_prox_check(f, 1.0, z, x=x_bad)


class TestQuadraticFn:
    def test_identity_data_term(self):
        f = quadratic_fn(identity_op(3), np.zeros(3))
        x = np.array([1.0, 2.0, -1.0])
        assert f.value(x) == pytest.approx(0.5 * 6.0)
        np.testing.assert_allclose(f.grad(x), x)
        assert f.lipschitz == pytest.approx(1.0, rel=1e-5)

    def test_gradient_vanishes_at_data(self):
        b = np.array([0.5, -2.0])
        f = quadratic_fn(identity_op(2), b)
        np.testing.assert_allclose(f.grad(b), np.zeros(2), atol=0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((4, 3))
        i, j = np.nonzero(dense)
        A = matrix_op(SparseMatrix(4, 3, (i, j, dense[i, j])))
        b = rng.standard_normal(4)
        f = quadratic_fn(A, b)
        x = rng.standard_normal(3)
        g = f.grad(x)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (f.value(x + e) - f.value(x - e)) / (2 * h)
            assert abs(fd - g[k]) <= 1e-5 * max(1.0, abs(g[k]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quadratic_fn(identity_op(3), np.zeros(4))

    def test_cocoercivity_of_gradient(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((5, 4))
        i, j = np.nonzero(dense)
        A = matrix_op(SparseMatrix(5, 4, (i, j, dense[i, j])))
        f = quadratic_fn(A, rng.standard_normal(5))
        beta = 1.0 / f.lipschitz
        for _ in range(200):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            dg = f.grad(x) - f.grad(y)
            inner = float(dg @ (x - y))
            assert inner >= beta * float(dg @ dg) - 1e-9


def firmly_nonexpansive_trials(prox_map, dim, n_trials=1000, seed=6):
    """Both characterizations of firm nonexpansiveness, for P and I - P."""
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        z1 = rng.standard_normal(dim) * 2
        z2 = rng.standard_normal(dim) * 2
        p1, p2 = prox_map(z1), prox_map(z2)
        for a1, a2 in ((p1, p2), (z1 - p1, z2 - p2)):
            d = a1 - a2
            inner = float(d @ (z1 - z2))
            sq = float(d @ d)
            assert sq <= inner + 1e-9
            resid = (z1 - a1) - (z2 - a2)
            assert sq <= float((z1 - z2) @ (z1 - z2)) - float(resid @ resid) + 1e-9


@pytest.mark.parametrize("name,fn", [
    ("l1", l1_norm_fn(5, weight=0.8)),
    ("group", group_l2_norm_fn(5, [(0, 1), (2, 3, 4)], weight=1.1)),
    ("zero", zero_prox_fn(5)),
])
def test_firm_nonexpansiveness_of_prox_and_complement(name, fn):
    firmly_nonexpansive_trials(lambda z: fn.prox(0.9, z), 5)


def test_prox_optimality_against_random_probes():
    rng = np.random.default_rng(7)
    fns = [l1_norm_fn(4, weight=0.5), group_l2_norm_fn(4, [(0, 1), (2, 3)])]
    for f in fns:
        for _ in range(100):
            t = float(rng.uniform(0.1, 3.0))
            z = rng.standard_normal(4) * 2
            p = f.prox(t, z)
            lhs = f.value(p) + float((p - z) @ (p - z)) / (2 * t)
            for _ in range(10):
                y = rng.standard_normal(4) * 2
                rhs = f.value(y) + float((y - z) @ (y - z)) / (2 * t)
                assert lhs <= rhs + 1e-9


# Calls refused with a ValueError, and the words that name what is wrong.
NAMED_ERRORS = {
    "resolvent-nu": (lambda: resolvent_identity_check(l1_norm_fn(2), 0.0, 1.0, np.ones(2)),
                     "nu and mu must be positive"),
    # NaN passes a "<= 0" check, and would give NaN arrays or a NaN residual
    "resolvent-nu-nan": (lambda: resolvent_identity_check(l1_norm_fn(2), np.nan, 1.0,
                                                          np.ones(2)), "nu and mu must be positive"),
    "l1-prox-nan": (lambda: l1_prox(np.nan, np.ones(2)), "t must be positive"),
    "group-l2-prox-nan": (lambda: group_l2_prox(np.nan, np.ones(2), [(0, 1)]),
                          "t must be positive"),
    "conjugate-prox-nan": (lambda: conjugate_prox(l1_norm_fn(2), np.nan, np.ones(2)),
                           "t must be positive"),
    **{f"{name}-{method}-nan": (lambda f=f, method=method: getattr(f, method)(np.nan, np.ones(2)),
                                "t must be positive")
       for name, f in (("l1-norm-fn", l1_norm_fn(2)),
                       ("group-l2-norm-fn", group_l2_norm_fn(2, [(0, 1)])))
       for method in ("prox", "conj_proj")},
    "quadratic-zero-A": (lambda: quadratic_fn(matrix_op(SparseMatrix(
        2, 2, (np.zeros(1, int), np.zeros(1, int), [0.0]))), np.ones(2)), "A must be nonzero"),
}


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_named_errors(case):
    call, named = NAMED_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(named)):
        call()
