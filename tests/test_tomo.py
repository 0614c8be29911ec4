import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import pdfp
from pdfp import (
    StoppingRule,
    TomoGeometry,
    TomoProblem,
    build_projection_matrix,
    make_denoise_problem,
    make_lasso_problem,
    make_tomo_problem,
    make_tv_problem,
    paper_ct_geometry,
    pdfp2o,
    read_pgm,
    shepp_logan,
    write_pgm,
    SparseMatrix,
)


class TestSheppLogan:
    def test_values_in_unit_interval(self):
        img = shepp_logan(64)
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    def test_corners_are_background(self):
        img = shepp_logan(32)
        assert img[0, 0] == 0.0 and img[0, -1] == 0.0
        assert img[-1, 0] == 0.0 and img[-1, -1] == 0.0

    def test_mirror_symmetric_outside_asymmetric_features(self):
        # the off-center ellipses (two unequal ventricles, three small bottom
        # blobs) break left-right symmetry; everything above and below their
        # vertical extent is covered only by centered ellipses and mirrors
        # exactly
        n = 100
        img = shepp_logan(n)
        half = (n - 1) / 2.0
        ys = (half - np.arange(n)) / half
        for band in (img[ys > 0.45, :], img[ys < -0.67, :]):
            assert band.size > 0
            np.testing.assert_array_equal(band, np.flip(band, axis=1))

    def test_deterministic(self):
        np.testing.assert_array_equal(shepp_logan(48), shepp_logan(48))

    def test_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            shepp_logan(15)


class TestGeometry:
    def test_paper_geometry_dimensions(self):
        g = paper_ct_geometry(256)
        assert len(g.angles_deg) == 18
        assert g.angles_deg[0] == 0 and g.angles_deg[-1] == 170
        assert g.rays_per_angle == 362
        assert g.n_rows == 18 * 362
        assert g.n_cols == 256 * 256

    def test_validation(self):
        with pytest.raises(ValueError):
            TomoGeometry(image_side=8, angles_deg=(0.0, 180.0), rays_per_angle=4)
        with pytest.raises(ValueError):
            TomoGeometry(image_side=8, angles_deg=(0.0,), rays_per_angle=0)

    def test_no_angles_named(self):
        with pytest.raises(ValueError, match="angles_deg must hold at least one angle"):
            TomoGeometry(image_side=8, angles_deg=(), rays_per_angle=11)


class TestProjectionMatrix:
    def test_axis_aligned_rays_traverse_full_columns(self):
        g = TomoGeometry(image_side=8, angles_deg=(0.0,), rays_per_angle=8)
        A = build_projection_matrix(g)
        sums = A.matvec(np.ones(64))
        np.testing.assert_allclose(sums, 8.0, rtol=1e-13)
        dense = A.to_dense()
        for k in range(8):
            touched = np.unique(np.nonzero(dense[k].reshape(8, 8))[1])
            assert touched.size == 1

    def test_projection_of_constant_image_gives_chord_lengths(self):
        n, p = 8, 12
        ang = 37.0
        g = TomoGeometry(image_side=n, angles_deg=(ang,), rays_per_angle=p)
        A = build_projection_matrix(g)
        proj = A.matvec(np.ones(n * n))
        t = math.radians(ang)
        ux, uy = -math.sin(t), math.cos(t)
        wx, wy = math.cos(t), math.sin(t)
        half = n / 2.0
        for k in range(p):
            off = k - (p - 1) / 2.0
            x0, y0 = off * wx, off * wy
            s_lo, s_hi = -np.inf, np.inf
            for p0, d in ((x0, ux), (y0, uy)):
                s1, s2 = (-half - p0) / d, (half - p0) / d
                s_lo = max(s_lo, min(s1, s2))
                s_hi = min(s_hi, max(s1, s2))
            chord = max(0.0, s_hi - s_lo)
            assert proj[k] == pytest.approx(chord, abs=1e-10)

    def test_entries_nonnegative(self):
        g = TomoGeometry(image_side=10, angles_deg=(0.0, 30.0, 77.5, 120.0), rays_per_angle=15)
        A = build_projection_matrix(g)
        _, _, vals = A.triplets
        assert np.all(vals >= 0.0)

    def test_linearity_on_zero_image(self):
        g = TomoGeometry(image_side=6, angles_deg=(10.0, 95.0), rays_per_angle=9)
        A = build_projection_matrix(g)
        assert np.all(A.matvec(np.zeros(36)) == 0.0)
        assert np.all(A.rmatvec(np.zeros(18)) == 0.0)

    def test_construction_is_deterministic(self):
        g = TomoGeometry(image_side=12, angles_deg=(0.0, 45.0, 135.0), rays_per_angle=17)
        r1, c1, v1 = build_projection_matrix(g).triplets
        r2, c2, v2 = build_projection_matrix(g).triplets
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(v1, v2)


def ray_segments_reference(n, x0, y0, ux, uy):
    """One ray's (rows, cols, lengths), traced alone: the former per-ray loop."""
    half = n / 2.0
    s_lo, s_hi = -np.inf, np.inf
    for p0, d in ((x0, ux), (y0, uy)):
        if d == 0.0:
            if not (-half <= p0 <= half):
                return None
        else:
            s1 = (-half - p0) / d
            s2 = (half - p0) / d
            s_lo = max(s_lo, min(s1, s2))
            s_hi = min(s_hi, max(s1, s2))
    if not (s_lo < s_hi):
        return None
    grid = np.arange(n + 1) - half
    parts = [np.array([s_lo, s_hi])]
    for p0, d in ((x0, ux), (y0, uy)):
        if d != 0.0:
            s = (grid - p0) / d
            parts.append(s[(s > s_lo) & (s < s_hi)])
    s = np.sort(np.concatenate(parts))
    lengths = np.diff(s)
    keep = lengths > 1e-12
    if not keep.any():
        return None
    mids = 0.5 * (s[:-1] + s[1:])[keep]
    lengths = lengths[keep]
    cols = np.floor(x0 + mids * ux + half).astype(np.int64)
    rows = np.floor(y0 + mids * uy + half).astype(np.int64)
    ok = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    return rows[ok], cols[ok], lengths[ok]


def projection_matrix_reference(g):
    """The CSR the former assembly made: one ray at a time, int64 triplets,
    through a COO matrix."""
    n, p = g.image_side, g.rays_per_angle
    ri, ci, vi = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for a, ang in enumerate(g.angles_deg):
        t = math.radians(ang)
        ux, uy = -math.sin(t), math.cos(t)
        wx, wy = math.cos(t), math.sin(t)
        for k in range(p):
            off = (k - (p - 1) / 2.0) * g.detector_spacing
            seg = ray_segments_reference(n, off * wx, off * wy, ux, uy)
            if seg is None:
                continue
            rows, cols, lengths = seg
            ri.append(np.full(rows.size, a * p + k, dtype=np.int64))
            ci.append(rows * n + cols)
            vi.append(lengths)
    coo = scipy.sparse.coo_matrix(
        (np.concatenate(vi), (np.concatenate(ri), np.concatenate(ci))), shape=(g.n_rows, g.n_cols)
    )
    csr = coo.tocsr()
    csr.sum_duplicates()
    return csr


def assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


ASSEMBLY_CASES = {
    "paper16": paper_ct_geometry(16),
    "paper64": paper_ct_geometry(64),
    "paper256": paper_ct_geometry(256),
    # 0 degrees is the one angle whose direction has an exact zero component
    "angle0": TomoGeometry(image_side=12, angles_deg=(0.0,), rays_per_angle=19),
    "angle90": TomoGeometry(image_side=12, angles_deg=(90.0,), rays_per_angle=19),
    "angle179.5": TomoGeometry(image_side=12, angles_deg=(179.5,), rays_per_angle=19),
    "spacing0.5": TomoGeometry(image_side=10, angles_deg=(0.0, 33.0, 90.0, 145.0),
                               rays_per_angle=31, detector_spacing=0.5),
    "spacing1.3": TomoGeometry(image_side=10, angles_deg=(0.0, 33.0, 90.0, 145.0),
                               rays_per_angle=13, detector_spacing=1.3),
    # offsets up to +-12 over a 6-pixel image: most rays miss it
    "misses": TomoGeometry(image_side=6, angles_deg=(0.0, 45.0, 120.0), rays_per_angle=25),
    "side2": TomoGeometry(image_side=2, angles_deg=(0.0, 45.0, 90.0, 135.0), rays_per_angle=5),
}


class TestAssembly:
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
    def test_csr_matches_per_ray_reference(self, name):
        g = ASSEMBLY_CASES[name]
        got = build_projection_matrix(g)._csr
        want = projection_matrix_reference(g)
        assert_same_csr(got, want)
        if name == "misses":
            empty = np.diff(want.indptr) == 0
            assert empty[:25].any() and empty[25:].any() and not empty.all()

    def test_peak_memory_within_two_and_a_half_csr_sizes(self):
        g = paper_ct_geometry(256)
        tracemalloc.start()
        try:
            A = build_projection_matrix(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        csr = A._csr
        assert A.nnz == 1497424
        assert peak <= 2.5 * (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


class TestMakeTomoProblem:
    def test_zero_noise_is_exact(self):
        g = TomoGeometry(image_side=16, angles_deg=(0.0, 90.0), rays_per_angle=23)
        t = make_tomo_problem(g, 0.0, seed=1)
        np.testing.assert_array_equal(t.b, t.A.matvec(t.x_true.ravel()))

    def test_relative_noise_level_is_exact(self):
        g = TomoGeometry(image_side=16, angles_deg=(0.0, 90.0), rays_per_angle=23)
        t = make_tomo_problem(g, 0.01, seed=1)
        clean = t.A.matvec(t.x_true.ravel())
        ratio = np.linalg.norm(t.b - clean) / np.linalg.norm(clean)
        assert ratio == pytest.approx(0.01, abs=1e-9)

    def test_same_seed_reproduces_data(self):
        g = TomoGeometry(image_side=16, angles_deg=(0.0, 90.0), rays_per_angle=23)
        t1 = make_tomo_problem(g, 0.05, seed=9)
        t2 = make_tomo_problem(g, 0.05, seed=9)
        np.testing.assert_array_equal(t1.b, t2.b)

    def test_different_seed_changes_noise(self):
        g = TomoGeometry(image_side=16, angles_deg=(0.0, 90.0), rays_per_angle=23)
        t1 = make_tomo_problem(g, 0.05, seed=9)
        t2 = make_tomo_problem(g, 0.05, seed=10)
        assert not np.array_equal(t1.b, t2.b)


class TestMakeTvProblem:
    def test_tiny_regularization_recovers_data(self):
        rng = np.random.default_rng(2)
        b = rng.uniform(0.0, 1.0, 16)
        t = TomoProblem(A=SparseMatrix.identity(16), b=b, x_true=b.reshape(4, 4),
                        noise_level=0.0)
        p = make_tv_problem(t, reg_weight=1e-9)
        u, tr = pdfp2o(p, p.beta, p.lambda_hi, stop=StoppingRule(tol=1e-13, max_iter=50000))
        assert np.linalg.norm(u.x - b) <= 1e-6

    def test_huge_regularization_flattens_to_mean(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(0.0, 1.0, 16)
        t = TomoProblem(A=SparseMatrix.identity(16), b=b, x_true=b.reshape(4, 4),
                        noise_level=0.0)
        p = make_tv_problem(t, reg_weight=100.0)
        u, tr = pdfp2o(p, p.beta, p.lambda_hi, stop=StoppingRule(tol=1e-13, max_iter=50000))
        # a dominant penalty forces an essentially constant image at the data mean
        assert np.ptp(u.x) <= 1e-6
        assert np.mean(u.x) == pytest.approx(np.mean(b), abs=1e-6)

    def test_isotropic_variant_pairs_pixel_gradients(self):
        rng = np.random.default_rng(4)
        b = rng.uniform(0.0, 1.0, 16)
        t = TomoProblem(A=SparseMatrix.identity(16), b=b, x_true=b.reshape(4, 4),
                        noise_level=0.0)
        p = make_tv_problem(t, reg_weight=0.2, variant="isotropic-pair")
        # the penalty of a one-pixel bump counts its dx/dy pair jointly
        img = np.zeros((4, 4))
        img[1, 1] = 1.0
        val = p.f1.value(p.D.forward(img.ravel()))
        # forward differences of the bump: dx pair (-1 at (1,0) is not a pair...)
        # dx at (1,1) = -1, dy at (1,1) = -1 -> one pair of norm sqrt(2);
        # dx at (1,0) = 1 pairs with dy at (1,0) = 0 -> norm 1; same for dy at (0,1)
        assert val == pytest.approx(0.2 * (math.sqrt(2.0) + 1.0 + 1.0), rel=1e-12)

    def test_rejects_nonpositive_weight(self):
        t = TomoProblem(A=SparseMatrix.identity(16), b=np.zeros(16),
                        x_true=np.zeros((4, 4)), noise_level=0.0)
        with pytest.raises(ValueError):
            make_tv_problem(t, reg_weight=0.0)


class TestProblemBuilders:
    def test_denoise_problem_realizes_identity_data_term(self):
        p, x_true = make_denoise_problem(16, 0.05, seed=2, reg_weight=0.1)
        assert p.f2.A.tag == "identity"
        assert p.D.out_dim == 2 * 256
        assert x_true.shape == (16, 16)

    def test_lasso_problem_certificate_ready(self):
        p, x_true = make_lasso_problem(16, 0.05, seed=2, reg_weight=0.1)
        assert p.D.tag == "identity"
        assert p.lambda_max_ddt == 1.0


class TestImageIO:
    def test_pgm_round_trip(self, tmp_path):
        img = shepp_logan(32)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (32, 32)
        assert np.max(np.abs(back - img)) <= 0.5 / 65535.0

    def test_pgm_header_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((3, 5)))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n5 3\n65535\n")
        assert len(raw) == len(b"P5\n5 3\n65535\n") + 2 * 15

    def test_pgm_big_endian_encoding(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[1.0]]))
        raw = path.read_bytes()
        assert raw.endswith(b"\xff\xff")


SCIPY_SUBMODULES = ("scipy.sparse", "scipy.ndimage", "scipy.linalg")


def scipy_submodules_loaded_after(code):
    """The scipy submodules a fresh interpreter holds after ``import pdfp`` and ``code``."""
    path = [str(Path(pdfp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = (f"import sys\nimport pdfp\n{code}\n"
              f"print(*(m for m in {SCIPY_SUBMODULES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    return set(out.stdout.split())


class TestModuleLoading:
    """A run loads only the scipy submodules its problem uses."""

    def test_import_loads_no_scipy_submodule(self):
        assert scipy_submodules_loaded_after("") == set()

    def test_denoise_run_loads_no_scipy_submodule(self):
        code = ("p, x = pdfp.make_denoise_problem(32, 0.1, 1, 0.05, 'isotropic-pair')\n"
                "pdfp.pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, 0.0, pdfp.StoppingRule(1e-4, 50),"
                " stop=pdfp.StoppingRule(0.0, 5))")
        assert scipy_submodules_loaded_after(code) == set()

    def test_ct_problem_loads_scipy_sparse_only(self):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "ct_constant.cfg"
        code = ("from pdfp.cli import ExperimentConfig\n"
                f"ExperimentConfig.load({str(cfg)!r}, {{'problem.size': 32}}).build_problem()")
        assert scipy_submodules_loaded_after(code) == {"scipy.sparse"}


# Each call with a NaN or infinite parameter, which the old `x < 0` and
# `x <= 0` checks let through.
NON_FINITE_CALLS = {
    "add_relative_noise": lambda bad: pdfp.tomo.add_relative_noise(
        np.ones(4), bad, np.random.default_rng(0)),
    "reg_weight": lambda bad: make_denoise_problem(16, 0.05, 0, bad),
    "l1_norm_fn": lambda bad: pdfp.l1_norm_fn(4, weight=bad),
    "group_l2_norm_fn": lambda bad: pdfp.group_l2_norm_fn(4, [[0, 1], [2, 3]], weight=bad),
    "gaussian_blur_op": lambda bad: pdfp.gaussian_blur_op(8, 8, 1, bad),
    "angle": lambda bad: TomoGeometry(image_side=8, angles_deg=(0.0, bad), rays_per_angle=11),
    "detector_spacing": lambda bad: TomoGeometry(image_side=8, angles_deg=(0.0,),
                                                 rays_per_angle=11, detector_spacing=bad),
    "StoppingRule": lambda bad: StoppingRule(tol=bad),
    "decay": lambda bad: pdfp.convergent_perturbation_schedule(1.0, 0.1, decay=bad),
    "rate_certificate": lambda bad: pdfp.rate_certificate(
        make_lasso_problem(16, 0.05, 0, 0.05)[0], 1.0, 0.5, 0.1, 0.9, bad),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_parameters_are_refused(call, bad):
    with pytest.raises(ValueError, match="finite number|must lie in"):
        NON_FINITE_CALLS[call](bad)


def read_pgm_of(tmp, data):
    path = tmp / "x.pgm"
    path.write_bytes(data)
    return read_pgm(path)


def geometry(**changes):
    return TomoGeometry(**{"image_side": 8, "angles_deg": (0.0,), "rays_per_angle": 11, **changes})


# Calls refused with a ValueError, and the words that name what is wrong; each
# takes a scratch directory. A float side or ray count once failed inside
# numpy's matrix build with "'float' object cannot be interpreted as an integer".
NAMED_ERRORS = {
    "image-side-float": (lambda tmp: geometry(image_side=16.5),
                         "image_side=16.5 must be an integer"),
    "rays-float": (lambda tmp: geometry(rays_per_angle=2.5),
                   "rays_per_angle=2.5 must be an integer"),
    "image-side-small": (lambda tmp: geometry(image_side=1), "image_side must be at least 2"),
    "tv-variant": (lambda tmp: make_tv_problem(
        TomoProblem(A=pdfp.identity_op(16), b=np.zeros(16), x_true=np.zeros((4, 4)),
                    noise_level=0.0), 0.1, "bogus"), "unknown variant 'bogus'"),
    "write-pgm-1d": (lambda tmp: write_pgm(tmp / "x.pgm", np.zeros(4)), "image must be 2-D"),
    "read-pgm-magic": (lambda tmp: read_pgm_of(tmp, b"P2\n2 2\n65535\n"), "not a binary PGM file"),
    "read-pgm-maxval": (lambda tmp: read_pgm_of(tmp, b"P5\n2 2\n255\n" + bytes(4)),
                        "expected a 16-bit PGM (maxval 65535)"),
    # once Python's "invalid literal for int() with base 10: b'abc\\n'"
    "read-pgm-maxval-text": (lambda tmp: read_pgm_of(tmp, b"P5\n2 2\nabc\n" + bytes(8)),
                             "bad maxval line: expected 65535"),
    "read-pgm-maxval-empty": (lambda tmp: read_pgm_of(tmp, b"P5\n2 2\n\n" + bytes(8)),
                              "bad maxval line: expected 65535"),
    # once numpy's "buffer size must be a multiple of element size" and
    # "not enough values to unpack"
    "read-pgm-short": (lambda tmp: read_pgm_of(tmp, b"P5\n5 4\n65535\n" + bytes(37)),
                       "expected 20 16-bit pixels, found 37 bytes"),
    "read-pgm-size": (lambda tmp: read_pgm_of(tmp, b"P5\n2\n65535\n" + bytes(8)),
                      "bad size line"),
    # once numpy's "expected non-negative integer", which names no argument,
    # and a seed of 1.5 ran as 1
    "seed-negative": (lambda tmp: make_denoise_problem(16, 0.05, -1, 0.1),
                      "seed=-1 must be a nonnegative integer"),
    "seed-float": (lambda tmp: make_denoise_problem(16, 0.05, 1.5, 0.1),
                   "seed=1.5 must be an integer"),
    "phantom-side-float": (lambda tmp: shepp_logan(16.5), "n=16.5 must be an integer"),
}


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_named_errors(case, tmp_path):
    call, named = NAMED_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(named)):
        call(tmp_path)


def test_geometry_takes_numpy_integers():
    g = geometry(image_side=np.int64(8), rays_per_angle=np.int32(11))
    assert build_projection_matrix(g).shape == (11, 64)
