"""Desk-scale imaging test problems: phantom, parallel-beam CT, denoise, deblur."""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import atomic_write
from .linops import SparseMatrix, _integer, diff_op_2d, gaussian_blur_op, identity_op, \
    matrix_op, norm
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
    """Independent, named random stream derived from one experiment seed, a
    nonnegative integer."""
    if _integer(seed, "seed") < 0:
        raise ValueError(f"seed={seed!r} must be a nonnegative integer")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(int(channel),))


def shepp_logan(n):
    """The standard 10-ellipse head phantom on an n x n grid, values in [0, 1]."""
    if _integer(n, "n") < 16:
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
        if _integer(self.image_side, "image_side") < 2:
            raise ValueError("image_side must be at least 2")
        if _integer(self.rays_per_angle, "rays_per_angle") < 1:
            raise ValueError("rays_per_angle must be positive")
        if len(self.angles_deg) == 0:
            raise ValueError("angles_deg must hold at least one angle")
        if not all(0.0 <= a < 180.0 for a in self.angles_deg):
            raise ValueError("angles must lie in [0, 180)")
        if not 0.0 < self.detector_spacing < math.inf:
            raise ValueError("detector_spacing must be a positive finite number")

    @property
    def n_rows(self):
        return len(self.angles_deg) * self.rays_per_angle

    @property
    def n_cols(self):
        return self.image_side ** 2


def paper_ct_geometry(n=256):
    """The reference CT scan: angles 0,10,...,170 and ~sqrt(2)*n rays per angle."""
    rays = int(round(math.sqrt(2.0) * n))
    return TomoGeometry(image_side=n, angles_deg=tuple(range(0, 180, 10)), rays_per_angle=rays)


def build_projection_matrix(g):
    """Line-length parallel-beam system matrix for a :class:`TomoGeometry`.

    Row (angle i, ray j) holds the intersection lengths of that ray with
    each pixel of the image; rays missing the image give zero rows. Entries
    are nonnegative and the construction is deterministic.
    """
    n = g.image_side
    p = g.rays_per_angle
    offs = (np.arange(p) - (p - 1) / 2.0) * g.detector_spacing
    idx_dtype = np.int32 if g.n_cols <= np.iinfo(np.int32).max else np.int64

    def piece(ang):
        # one CSR piece per angle, so the whole matrix is never held twice
        lengths, pixels, ray = _trace_angle(n, offs, math.radians(ang))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(ray, minlength=p))))
        return lengths, pixels.astype(idx_dtype), indptr

    return SparseMatrix._from_row_chunks(g.n_rows, g.n_cols, map(piece, g.angles_deg))


def _trace_angle(n, offs, t):
    """Siddon's parametric tracing of the rays at offsets ``offs``, angle ``t`` (radians).

    Each ray's entry into and exit from the unit-pixel grid over
    ``[-n/2, n/2]^2`` and its grid-line crossings are sorted; each gap
    longer than 1e-12 goes to the pixel holding its midpoint, so a ray
    along a pixel edge goes to the pixel with the larger index. Returns each
    gap's length, pixel (flattened) and ray (index into ``offs``), in ray
    order and then along the ray.
    """
    half = n / 2.0
    ux, uy = -math.sin(t), math.cos(t)
    x0, y0 = offs * math.cos(t), offs * math.sin(t)
    s_lo, s_hi = np.full(offs.size, -np.inf), np.full(offs.size, np.inf)
    hit = np.ones(offs.size, dtype=bool)
    for p0, d in ((x0, ux), (y0, uy)):
        if d == 0.0:
            hit &= (-half <= p0) & (p0 <= half)
        else:
            s1, s2 = (-half - p0) / d, (half - p0) / d
            np.maximum(s_lo, np.minimum(s1, s2), out=s_lo)
            np.minimum(s_hi, np.maximum(s1, s2), out=s_hi)
    hit &= s_lo < s_hi
    # one row per ray: entry, exit and the grid crossings strictly between
    # them; NaN marks an unused slot, sorts last and fails the length test
    grid = np.arange(n + 1) - half
    families = [(p0, d) for p0, d in ((x0, ux), (y0, uy)) if d != 0.0]
    s = np.empty((offs.size, 2 + len(families) * (n + 1)))
    s[:, 0], s[:, 1] = s_lo, s_hi
    for k, (p0, d) in enumerate(families):
        cross = s[:, 2 + k * (n + 1):2 + (k + 1) * (n + 1)]
        np.subtract(grid, p0[:, None], out=cross)
        cross /= d
        # no crossing is NaN, so this is not (s_lo < cross < s_hi)
        outside = cross <= s_lo[:, None]
        outside |= cross >= s_hi[:, None]
        np.copyto(cross, np.nan, where=outside)
    s[~hit] = np.nan
    s.sort(axis=1)
    keep = np.diff(s, axis=1) > 1e-12
    # kept gap f of the flattened (rays, slots - 1) gaps runs from entry
    # f + ray to entry f + ray + 1 of the flattened s
    ray = np.repeat(np.arange(offs.size), np.count_nonzero(keep, axis=1))
    at = np.flatnonzero(keep)
    at += ray
    s = s.ravel()
    start, end = s[at], s[1:][at]
    lengths = end - start
    # 0.5 * (start + end) and floor(x0 + mids * ux + half) in place; a sum's
    # operands may swap, since floating-point addition is commutative
    mids = np.add(start, end, out=start)
    mids *= 0.5
    cols, rows = (np.multiply(mids, d) for d in (ux, uy))
    for c, p0 in ((cols, x0), (rows, y0)):
        c += p0[ray]
        c += half
        np.floor(c, out=c)
    ok = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    rows *= n
    pixels = np.add(rows, cols, out=rows).astype(np.int64)
    if ok.all():
        return lengths, pixels, ray
    return lengths[ok], pixels[ok], ray[ok]


@dataclass(frozen=True)
class TomoProblem:
    """A measured imaging problem: data operator (matrix or LinearOp), noisy data, ground truth."""

    A: object
    b: np.ndarray
    x_true: np.ndarray
    noise_level: float

    @property
    def shape(self):
        return self.x_true.shape


def add_relative_noise(clean, noise_level, rng):
    """Gaussian noise scaled so ``||e|| / ||clean|| == noise_level`` exactly."""
    if not 0.0 <= noise_level < math.inf:
        raise ValueError("noise_level must be a nonnegative finite number")
    if noise_level == 0.0:
        return clean.copy()
    e = rng.standard_normal(clean.size)
    e *= noise_level * norm(clean) / norm(e)
    return clean + e


def _measure(clean, noise_level, seed):
    """``clean`` plus relative noise drawn from the seed's noise stream."""
    rng = np.random.default_rng(seed_stream(seed, NOISE_CHANNEL))
    return add_relative_noise(clean, noise_level, rng)


def make_tomo_problem(g, noise_level, seed):
    """Phantom + projection matrix + noisy sinogram for a scan geometry."""
    x_true = shepp_logan(g.image_side)
    A = build_projection_matrix(g)
    b = _measure(A.matvec(x_true.ravel()), noise_level, seed)
    return TomoProblem(A=A, b=b, x_true=x_true, noise_level=noise_level)


def _tv_prox_fn(h, w, reg_weight, variant):
    if not 0.0 < reg_weight < math.inf:
        raise ValueError("reg_weight must be a positive finite number")
    hw = h * w
    if variant == "anisotropic":
        return l1_norm_fn(2 * hw, weight=reg_weight)
    # "isotropic-pair": make_tv_problem's diff_op_2d has refused every other variant
    k = np.arange(hw)
    return group_l2_norm_fn(2 * hw, np.stack([k, hw + k], axis=1), weight=reg_weight)


def make_tv_problem(t, reg_weight, variant="anisotropic", power_seed=0):
    """Assemble ``min 0.5 ||A x - b||^2 + reg_weight * TV(x)`` from a TomoProblem.

    ``variant`` selects the penalty paired with the stacked differences:
    "anisotropic" applies the l1 norm to every difference, "isotropic-pair"
    the l2 norm over each pixel's (horizontal, vertical) pair. With the
    identity matrix as ``A`` this is the plain TV-denoising model.
    """
    h, w = t.shape
    D = diff_op_2d(h, w, variant)
    A_op = matrix_op(t.A) if isinstance(t.A, SparseMatrix) else t.A
    f2 = quadratic_fn(A_op, t.b, power_seed=power_seed)
    f1 = _tv_prox_fn(h, w, reg_weight, variant)
    return make_problem(f1, f2, D, power_seed=power_seed)


def make_denoise_problem(n, noise_level, seed, reg_weight, variant="anisotropic"):
    """TV denoising of a noisy phantom: identity data operator."""
    x_true = shepp_logan(n)
    b = _measure(x_true.ravel(), noise_level, seed)
    t = TomoProblem(A=identity_op(n * n), b=b, x_true=x_true, noise_level=noise_level)
    return make_tv_problem(t, reg_weight, variant), x_true


def make_deblur_problem(n, radius, sigma, noise_level, seed, reg_weight, variant="anisotropic"):
    """TV deblurring of a blurred, noisy phantom; both operators carry exact norm hints."""
    x_true = shepp_logan(n)
    A = gaussian_blur_op(n, n, radius, sigma)
    b = _measure(A.forward(x_true.ravel()), noise_level, seed)
    t = TomoProblem(A=A, b=b, x_true=x_true, noise_level=noise_level)
    return make_tv_problem(t, reg_weight, variant), x_true


def make_lasso_problem(n, noise_level, seed, reg_weight):
    """Sparse recovery of a noisy phantom with identity operators throughout.

    Both the data operator and the analysis operator are the identity, so
    the solution is a soft threshold of the data; the geometric-rate
    certificate applies to this problem (strong convexity 1, full row rank).
    """
    x_true = shepp_logan(n)
    b = _measure(x_true.ravel(), noise_level, seed)
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
    with atomic_write(path) as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path):
    """Read a 16-bit binary PGM written by :func:`write_pgm` back to [0, 1] floats."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError("not a binary PGM file")
        size = fh.readline().split()
        if len(size) != 2 or not all(tok.isdigit() for tok in size):
            raise ValueError("bad size line: expected a width and a height")
        w, h = map(int, size)
        maxval = fh.readline().strip()
        if not maxval.isdigit():
            raise ValueError("bad maxval line: expected 65535")
        if int(maxval) != 65535:
            raise ValueError("expected a 16-bit PGM (maxval 65535)")
        data = fh.read(2 * w * h)
    if len(data) != 2 * w * h:
        raise ValueError(f"expected {w * h} 16-bit pixels, found {len(data)} bytes")
    return np.frombuffer(data, dtype=">u2").reshape(h, w).astype(np.float64) / 65535.0
