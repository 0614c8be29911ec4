"""Desk-scale imaging test problems: phantom, parallel-beam CT, denoise, deblur."""

import math
from dataclasses import dataclass

import numpy as np

from .linops import SparseMatrix, diff_op_2d, gaussian_blur_op, identity_op, matrix_op
from .prox import group_l2_norm_fn, l1_norm_fn, quadratic_fn
from .solvers import make_problem

# Classical head-phantom ellipse table: (intensity, a, b, x0, y0, phi_deg).
# Intensities are additive; the assembled image is clamped to [0, 1].
SHEPP_LOGAN_ELLIPSES = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.01, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)

# Default regularization weight for the 256x256 CT reconstruction preset,
# frozen from a sweep maximizing SNR at the 2000-iteration budget
# (weights below ~2 or above ~4 land outside the target quality band).
DEFAULT_CT_REG_WEIGHT = 3.0

NOISE_CHANNEL = 0
POWER_CHANNEL = 1


def seed_stream(seed, channel):
    """Independent, named random stream derived from one experiment seed."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(int(channel),))


def shepp_logan(n):
    """The standard 10-ellipse head phantom on an n x n grid, values in [0, 1]."""
    if n < 16:
        raise ValueError("n must be at least 16")
    half = (n - 1) / 2.0
    xs = (np.arange(n) - half) / half
    ys = (half - np.arange(n)) / half
    X, Y = np.meshgrid(xs, ys)
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, phi in SHEPP_LOGAN_ELLIPSES:
        t = math.radians(phi)
        ct, st = math.cos(t), math.sin(t)
        xc = X - x0
        yc = Y - y0
        inside = ((xc * ct + yc * st) / a) ** 2 + ((yc * ct - xc * st) / b) ** 2 <= 1.0
        img[inside] += amp
    return np.clip(img, 0.0, 1.0)


@dataclass(frozen=True)
class TomoGeometry:
    """Parallel-beam scan geometry over an ``image_side`` square image.

    Rays are spaced ``detector_spacing`` pixel widths apart, centered on the
    image center, so ``rays_per_angle ~ sqrt(2) * image_side`` spans the
    image diagonal at unit spacing.
    """

    image_side: int
    angles_deg: tuple
    rays_per_angle: int
    detector_spacing: float = 1.0

    def __post_init__(self):
        if self.image_side < 2:
            raise ValueError("image_side must be at least 2")
        if self.rays_per_angle < 1:
            raise ValueError("rays_per_angle must be positive")
        if any(a < 0.0 or a >= 180.0 for a in self.angles_deg):
            raise ValueError("angles must lie in [0, 180)")
        if self.detector_spacing <= 0:
            raise ValueError("detector_spacing must be positive")

    @property
    def n_rows(self):
        return len(self.angles_deg) * self.rays_per_angle

    @property
    def n_cols(self):
        return self.image_side ** 2


def paper_ct_geometry(n=256):
    """The reference CT scan: angles 0,10,...,170 and ~sqrt(2)*n rays per angle."""
    rays = 362 if n == 256 else int(round(math.sqrt(2.0) * n))
    return TomoGeometry(image_side=n, angles_deg=tuple(range(0, 180, 10)), rays_per_angle=rays)


def _ray_segments(n, x0, y0, ux, uy):
    """Intersection lengths of the line (x0, y0) + s (ux, uy) with the pixel grid.

    Returns (rows, cols, lengths) arrays for the unit-pixel grid covering
    [-n/2, n/2]^2. A ray running exactly along a pixel edge is credited to
    the pixel with the larger index (floor of the boundary coordinate).
    """
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


def build_projection_matrix(g):
    """Line-length parallel-beam system matrix for a :class:`TomoGeometry`.

    Row (angle i, ray j) holds the intersection lengths of that ray with
    each pixel of the image; rays missing the image give zero rows. Entries
    are nonnegative and the construction is deterministic.
    """
    n = g.image_side
    p = g.rays_per_angle
    ri, ci, vi = [], [], []
    for a, ang in enumerate(g.angles_deg):
        t = math.radians(ang)
        ux, uy = -math.sin(t), math.cos(t)
        wx, wy = math.cos(t), math.sin(t)
        for k in range(p):
            off = (k - (p - 1) / 2.0) * g.detector_spacing
            seg = _ray_segments(n, off * wx, off * wy, ux, uy)
            if seg is None:
                continue
            rows, cols, lengths = seg
            ri.append(np.full(rows.size, a * p + k, dtype=np.int64))
            ci.append(rows * n + cols)
            vi.append(lengths)
    if ri:
        triplets = (np.concatenate(ri), np.concatenate(ci), np.concatenate(vi))
    else:
        triplets = ([], [], [])
    return SparseMatrix(g.n_rows, g.n_cols, triplets)


@dataclass(frozen=True)
class TomoProblem:
    """A measured imaging problem: system matrix, noisy data, ground truth."""

    A: object
    b: np.ndarray
    x_true: np.ndarray
    noise_level: float

    @property
    def shape(self):
        return self.x_true.shape


def add_relative_noise(clean, noise_level, rng):
    """Gaussian noise scaled so ``||e|| / ||clean|| == noise_level`` exactly."""
    if noise_level < 0:
        raise ValueError("noise_level must be nonnegative")
    if noise_level == 0.0:
        return clean.copy()
    e = rng.standard_normal(clean.size)
    e *= noise_level * float(np.linalg.norm(clean)) / float(np.linalg.norm(e))
    return clean + e


def make_tomo_problem(g, noise_level, seed):
    """Phantom + projection matrix + noisy sinogram for a scan geometry."""
    x_true = shepp_logan(g.image_side)
    A = build_projection_matrix(g)
    clean = A.matvec(x_true.ravel())
    rng = np.random.default_rng(seed_stream(seed, NOISE_CHANNEL))
    b = add_relative_noise(clean, noise_level, rng)
    return TomoProblem(A=A, b=b, x_true=x_true, noise_level=noise_level)


def _tv_prox_fn(h, w, reg_weight, variant):
    if reg_weight <= 0:
        raise ValueError("reg_weight must be positive")
    hw = h * w
    if variant == "anisotropic":
        return l1_norm_fn(2 * hw, weight=reg_weight)
    if variant == "isotropic-pair":
        groups = [(k, hw + k) for k in range(hw)]
        return group_l2_norm_fn(2 * hw, groups, weight=reg_weight)
    raise ValueError(f"unknown variant {variant!r}")


def make_tv_problem(t, reg_weight, variant="anisotropic", power_tol=1e-6, power_seed=0):
    """Assemble ``min 0.5 ||A x - b||^2 + reg_weight * TV(x)`` from a TomoProblem.

    ``variant`` selects the penalty paired with the stacked differences:
    "anisotropic" applies the l1 norm to every difference, "isotropic-pair"
    the l2 norm over each pixel's (horizontal, vertical) pair. With the
    identity matrix as ``A`` this is the plain TV-denoising model.
    """
    h, w = t.shape
    D = diff_op_2d(h, w, variant)
    A_op = matrix_op(t.A) if isinstance(t.A, SparseMatrix) else t.A
    f2 = quadratic_fn(A_op, t.b, power_tol=power_tol, power_seed=power_seed)
    f1 = _tv_prox_fn(h, w, reg_weight, variant)
    return make_problem(f1, f2, D, power_tol=power_tol, power_seed=power_seed)


def make_denoise_problem(n, noise_level, seed, reg_weight, variant="anisotropic"):
    """TV denoising of a noisy phantom: identity data operator."""
    x_true = shepp_logan(n)
    rng = np.random.default_rng(seed_stream(seed, NOISE_CHANNEL))
    b = add_relative_noise(x_true.ravel(), noise_level, rng)
    f2 = quadratic_fn(identity_op(n * n), b)
    f1 = _tv_prox_fn(n, n, reg_weight, variant)
    problem = make_problem(f1, f2, diff_op_2d(n, n, variant))
    return problem, x_true


def make_deblur_problem(n, radius, sigma, noise_level, seed, reg_weight,
                        variant="anisotropic", power_seed=0):
    """TV deblurring of a blurred, noisy phantom."""
    x_true = shepp_logan(n)
    A = gaussian_blur_op(n, n, radius, sigma)
    clean = A.forward(x_true.ravel())
    rng = np.random.default_rng(seed_stream(seed, NOISE_CHANNEL))
    b = add_relative_noise(clean, noise_level, rng)
    f2 = quadratic_fn(A, b, power_seed=power_seed)
    f1 = _tv_prox_fn(n, n, reg_weight, variant)
    problem = make_problem(f1, f2, diff_op_2d(n, n, variant), power_seed=power_seed)
    return problem, x_true


def make_lasso_problem(n, noise_level, seed, reg_weight):
    """Sparse recovery of a noisy phantom with identity operators throughout.

    Both the data operator and the analysis operator are the identity, so
    the solution is a soft threshold of the data; the geometric-rate
    certificate applies to this problem (strong convexity 1, full row rank).
    """
    x_true = shepp_logan(n)
    rng = np.random.default_rng(seed_stream(seed, NOISE_CHANNEL))
    b = add_relative_noise(x_true.ravel(), noise_level, rng)
    f2 = quadratic_fn(identity_op(n * n), b)
    f1 = l1_norm_fn(n * n, weight=reg_weight)
    problem = make_problem(f1, f2, identity_op(n * n))
    return problem, x_true


def write_pgm(path, image):
    """Write an image with values in [0, 1] (NaN as 0) as 16-bit big-endian binary PGM."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("image must be 2-D")
    h, w = image.shape
    data = np.round(np.clip(np.nan_to_num(image), 0.0, 1.0) * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path):
    """Read a 16-bit binary PGM written by :func:`write_pgm` back to [0, 1] floats."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError("not a binary PGM file")
        w, h = (int(tok) for tok in fh.readline().split())
        maxval = int(fh.readline())
        if maxval != 65535:
            raise ValueError("expected a 16-bit PGM (maxval 65535)")
        raw = np.frombuffer(fh.read(2 * w * h), dtype=">u2")
    return raw.reshape(h, w).astype(np.float64) / 65535.0


def write_image_csv(path, image):
    np.savetxt(path, np.asarray(image, dtype=np.float64), delimiter=",", fmt="%.17g")


def read_image_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_sinogram_csv(path, b, n_angles):
    """Write a sinogram as CSV with one row per projection angle."""
    b = np.asarray(b, dtype=np.float64)
    if b.size % n_angles:
        raise ValueError("sinogram length is not a multiple of the angle count")
    np.savetxt(path, b.reshape(n_angles, -1), delimiter=",", fmt="%.17g")
