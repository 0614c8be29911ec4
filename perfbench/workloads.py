"""The benchmark's workloads.

Each workload knows three things: how the program assembles its problem
(``build``, timed as ``setup_s``), how to assemble the same problem again
from public constructors with every closure traced (``build_traced``), and
the solver call a user of ``pdfp solve`` would make (``solve``). The traced
replica must reproduce the program's problem exactly; the benchmark checks
that by comparing the traced and untraced final iterates bit for bit.

Why each workload exists, and which layer each optimisation should show on,
is written down in ``perfbench/README.md``.
"""

import math
from pathlib import Path

import numpy as np

from pdfp import (
    SparseMatrix,
    StoppingRule,
    TomoGeometry,
    build_projection_matrix,
    diff_op_2d,
    group_l2_norm_fn,
    identity_op,
    l1_norm_fn,
    make_denoise_problem,
    make_problem,
    matrix_op,
    pdfp2o,
    pdfp2o_ds,
    pfbs_fp2o,
    quadratic_fn,
    shepp_logan,
)
from pdfp.cli import ExperimentConfig
from pdfp.tomo import NOISE_CHANNEL, POWER_CHANNEL, add_relative_noise, seed_stream

ROOT = Path(__file__).resolve().parent.parent

# Operator applications per iteration listed in ROADMAP.md (item 2) for the
# parent of the benchmark. Printed next to the measured counts; a later
# change that fuses the iteration is expected to move them.
ROADMAP_PDFP2O_OPS = {"A_fwd": 2, "A_adj": 1, "D_fwd": 3, "D_adj": 2}
ROADMAP_BB_OPS = {"A_fwd": 3, "A_adj": 2, "D_fwd": 3, "D_adj": 2}

# ms per call from the ROADMAP.md baseline table (single runs, +-30% noise).
ROADMAP_MS_PER_CALL = {
    "linops.A_fwd.ms_per_call": "1.8",
    "linops.A_adj.ms_per_call": "2.6-3.3",
    "prox.f2_grad.ms_per_call": "5.2",
    "linops.D_fwd.ms_per_call": "0.34",
    "linops.D_adj.ms_per_call": "0.29",
    "prox.f1_prox.ms_per_call": "0.56",
}


def _solver(tr, fn):
    return fn if tr is None else tr.wrap("solve", fn)


def _tv_prox(tr, variant, hw, weight):
    """The TV penalty on stacked differences, as ``tomo.make_tv_problem`` pairs it."""
    if variant == "anisotropic":
        return l1_norm_fn(2 * hw, weight=weight)
    groups = [(k, hw + k) for k in range(hw)]
    return tr.wrap("group_l2_norm_fn", group_l2_norm_fn)(2 * hw, groups, weight=weight)


def _assemble_traced(tr, A, b, f1, D, power_seed):
    """``make_problem(f1, quadratic_fn(A, b), D)`` with every closure traced.

    ``A`` is wrapped before ``quadratic_fn`` runs, because the gradient and
    value closures it returns capture the operator they were given.
    """
    A = tr.wrap_op(A, "A")
    f2 = tr.wrap("quadratic_fn", quadratic_fn)(A, b, power_seed=power_seed)
    f2 = tr.wrap_fields(f2, "f2", ("value", "grad"))
    f1 = tr.wrap_fields(f1, "f1", ("value", "prox"))
    D = tr.wrap_op(D, "D")
    return tr.wrap("make_problem", make_problem)(f1, f2, D, power_seed=power_seed)


def problem_facts(problem):
    """Sizes behind the working set and the computed bytes of one ``A`` call.

    Computed, not measured: a CSR product reads every value and column index
    once, the row pointers once, the input vector once and writes the output
    once. scipy keeps 32-bit indices below 2**31 entries. ``A`` applied by
    the program's ``SparseMatrix`` also holds a cached CSR transpose.
    """
    A = problem.f2.A
    # matrix_op hands out the bound methods of the SparseMatrix it wraps.
    M = getattr(A.forward, "__self__", None)
    vectors = 8 * (A.in_dim + A.out_dim)
    if isinstance(M, SparseMatrix):
        rows, cols = M.shape
        idx = 4 if max(M.nnz, rows + 1, cols + 1) < 2 ** 31 else 8
        entries = M.nnz * (8 + idx)
        nnz = M.nnz
        matrix_bytes = 2 * entries + (rows + cols + 2) * idx
        fwd_bytes = entries + (rows + 1) * idx + vectors
        adj_bytes = entries + (cols + 1) * idx + vectors
    else:  # identity data term: the "product" copies the vector
        nnz, matrix_bytes = 0, 0
        fwd_bytes = adj_bytes = vectors
    return {
        "nnz": nnz,
        "matrix_mib": matrix_bytes / 2 ** 20,
        "primal_vector_mib": 8 * problem.D.in_dim / 2 ** 20,
        "dual_vector_mib": 8 * problem.D.out_dim / 2 ** 20,
        "A_fwd_bytes": fwd_bytes,
        "A_adj_bytes": adj_bytes,
    }


class CTWorkload:
    """A CT preset from ``configs/``, run as ``pdfp solve`` runs it."""

    target_db = 20.0
    inner_cap = None

    def __init__(self, name, config, budget, snr_band, roadmap_ops):
        self.name = name
        self.config = config
        self.budget = budget
        self.snr_band = snr_band
        self.roadmap_ops = roadmap_ops
        self.cfg = None

    def configure(self, seed):
        self.cfg = ExperimentConfig.load(
            ROOT / self.config, {"run.seed": seed, "run.max_iter": self.budget}
        )

    def build(self):
        problem, x_true, _ = self.cfg.build_problem()
        return problem, x_true

    def build_traced(self, tr):
        cfg = self.cfg
        n, seed = cfg["problem.size"], cfg["run.seed"]
        rays = cfg["problem.rays"]
        rays = int(round(math.sqrt(2.0) * n)) if rays == "auto" else int(rays)
        step = cfg["problem.angle_step"]
        geom = TomoGeometry(
            image_side=n,
            angles_deg=tuple(step * k for k in range(cfg["problem.angle_count"])),
            rays_per_angle=rays,
        )
        x_true = tr.wrap("shepp_logan", shepp_logan)(n)
        M = tr.wrap("build_projection_matrix", build_projection_matrix)(geom)
        rng = np.random.default_rng(seed_stream(seed, NOISE_CHANNEL))
        b = add_relative_noise(M.matvec(x_true.ravel()), cfg["problem.noise"], rng)
        f1 = _tv_prox(tr, cfg.tv_variant, n * n, cfg.reg_weight())
        D = diff_op_2d(n, n, cfg.tv_variant)
        problem = _assemble_traced(tr, matrix_op(M), b, f1, D, seed_stream(seed, POWER_CHANNEL))
        return problem, x_true

    def solve(self, problem, x_true, tr=None):
        cfg = self.cfg
        gamma, lam = cfg.resolve_steps(problem)
        stop = StoppingRule(tol=cfg["run.tol"], max_iter=cfg["run.max_iter"])
        if cfg["solver.name"] == "pdfp2o":
            return _solver(tr, pdfp2o)(problem, gamma, lam, stop=stop, x_true=x_true.ravel())
        sched = cfg.schedule_spec(gamma, lam, cfg["schedule.alpha"]).build(problem)
        if tr is not None:
            sched = tr.wrap_fields(sched, "schedule", ("gamma", "lam", "alpha"))
        return _solver(tr, pdfp2o_ds)(problem, sched, stop=stop, x_true=x_true.ravel())


class DenoiseWorkload:
    """Isotropic TV denoising of the 256x256 phantom with the inner/outer solver."""

    name = "denoise256-iso-pfbs"
    target_db = 28.0
    inner_cap = 50
    roadmap_ops = None
    n, noise, reg_weight, variant = 256, 0.1, 0.05, "isotropic-pair"

    def __init__(self, budget, snr_band):
        self.budget = budget
        self.snr_band = snr_band
        self.seed = None

    def configure(self, seed):
        self.seed = seed

    def build(self):
        return make_denoise_problem(self.n, self.noise, self.seed, self.reg_weight, self.variant)

    def build_traced(self, tr):
        n, hw = self.n, self.n * self.n
        x_true = tr.wrap("shepp_logan", shepp_logan)(n)
        rng = np.random.default_rng(seed_stream(self.seed, NOISE_CHANNEL))
        b = add_relative_noise(x_true.ravel(), self.noise, rng)
        f1 = _tv_prox(tr, self.variant, hw, self.reg_weight)
        D = diff_op_2d(n, n, self.variant)
        problem = _assemble_traced(tr, identity_op(hw), b, f1, D, power_seed=0)
        return problem, x_true

    def solve(self, problem, x_true, tr=None):
        return _solver(tr, pfbs_fp2o)(
            problem, 1.99 * problem.beta, problem.lambda_hi, 0.0,
            StoppingRule(tol=1e-4, max_iter=self.inner_cap),
            stop=StoppingRule(tol=0.0, max_iter=self.budget),
            x_true=x_true.ravel(), warm_start=True,
        )


# 20 dB falls near iteration 1000 on both CT presets, so 1100 iterations
# reach it with margin for any seed. On the denoise workload 28 dB is first
# crossed at outer iteration 285 on the high branch of the odd/even SNR
# alternation; at the even budget of 600 the low branch is past 28 dB too.
# The bands hold the final SNR at the budget, 21.03-21.26 dB (CT) and
# 28.39-28.67 dB (denoise) over seeds 1-20, widened to about +-0.5 dB.
WORKLOADS = {
    w.name: w
    for w in (
        CTWorkload("ct256-constant", "configs/ct_constant.cfg", 1100, (20.65, 21.65),
                   ROADMAP_PDFP2O_OPS),
        CTWorkload("ct256-dynamic", "configs/ct_dynamic.cfg", 1100, (20.65, 21.65),
                   ROADMAP_BB_OPS),
        DenoiseWorkload(600, (28.0, 29.0)),
    )
}
