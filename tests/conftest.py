import dataclasses

import numpy as np
import pytest

from pdfp import (
    RunTrace,
    StoppingRule,
    diff_op_2d,
    gaussian_blur_op,
    identity_op,
    l1_norm_fn,
    make_problem,
    quadratic_fn,
)

# Frozen reference objectives, computed by 50k+ iteration runs at tol 1e-15
# and cross-checked against the primal-dual hybrid gradient solver
# (agreement 1e-13 and 4e-10 relative).
DENOISE4_REF_OBJECTIVE = 0.8340419978896387
DEBLUR8_REF_OBJECTIVE = 0.1682214693915204

# 4x4 piecewise-constant image (left half 0, right half 1) plus a fixed
# perturbation drawn once from seed 42.
DENOISE4_DATA = np.array([
    0.030471707975443137, -0.10399841062404956, 1.0750451195806456,
    1.0940564716391215, -0.19510351886538366, -0.13021795068623182,
    1.0127840403167285, 0.9683757407656418, -0.0016801157504288797,
    -0.08530439275735802, 1.0879397974862828, 1.0777791935428949,
    0.006603069756121605, 0.11272412069680329, 1.0467509342252046,
    0.9140707537116761,
])


def build_lasso1d():
    """min 0.1|x| + 0.5(x - 1)^2; solution 0.9, objective 0.095."""
    f2 = quadratic_fn(identity_op(1), np.array([1.0]))
    f1 = l1_norm_fn(1, weight=0.1)
    return make_problem(f1, f2, identity_op(1))


def build_denoise4():
    """4x4 anisotropic TV denoising with weight 0.2."""
    D = diff_op_2d(4, 4, "anisotropic")
    f2 = quadratic_fn(identity_op(16), DENOISE4_DATA)
    f1 = l1_norm_fn(32, weight=0.2)
    return make_problem(f1, f2, D)


def build_deblur8():
    """8x8 anisotropic TV deblurring with a radius-1 Gaussian blur."""
    x = np.zeros((8, 8))
    x[2:6, 2:6] = 1.0
    x[4:, :2] = 0.5
    A = gaussian_blur_op(8, 8, 1, 0.8)
    clean = A.forward(x.ravel())
    rng = np.random.default_rng(5)
    e = rng.standard_normal(64)
    e *= 0.02 * np.linalg.norm(clean) / np.linalg.norm(e)
    D = diff_op_2d(8, 8, "anisotropic")
    f2 = quadratic_fn(A, clean + e)
    f1 = l1_norm_fn(128, weight=0.01)
    return make_problem(f1, f2, D)


TIGHT_STOP = StoppingRule(tol=1e-13, max_iter=200000)


def same_bits(a, b):
    """``a`` and ``b`` hold the same values bit for bit: arrays by dtype, shape and
    bytes (so NaN equals NaN), states field by field, lists item by item."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    return a == b


def run_differences(a, b, skip=()):
    """What differs between two ``(final state, RunTrace)`` runs: ``"state"`` and
    the name of each trace field but ``wall_ms`` and ``skip`` whose values are not
    :func:`same_bits`, ``iterates`` included. Tests assert that it is empty."""
    (ua, ta), (ub, tb) = a, b
    names = [f.name for f in dataclasses.fields(RunTrace) if f.name not in ("wall_ms", *skip)]
    return ([] if same_bits(ua, ub) else ["state"]) + [
        name for name in names if not same_bits(getattr(ta, name), getattr(tb, name))]


@pytest.fixture(scope="session")
def lasso1d():
    return build_lasso1d()


@pytest.fixture(scope="session")
def denoise4():
    return build_denoise4()


@pytest.fixture(scope="session")
def deblur8():
    return build_deblur8()
