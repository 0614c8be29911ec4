"""Experiment runner: build a problem from a config file, solve, write artifacts.

Config files are plain text, one ``section.key = value`` per line, with ``#``
comments. The full key table is documented in the README. Subcommands:

* ``solve <config>``: run one solver, write ``trace.csv``, ``recon.pgm``,
  ``summary.txt`` into the output directory.
* ``compare <config_a> <config_b> --out <path>``: run two configs on the
  same problem and write an iteration-aligned quality CSV.
* ``certify <config>``: emit the geometric-rate certificate as CSV when the
  problem supports one.

Exit codes: 0 on success/convergence, 2 when the iteration budget ran out,
3 when ``solve`` diverged (a step's change came out non-finite), 1 on
configuration errors (including unknown keys and mismatched compares) and
when a spectral bound cannot be estimated.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import CERTIFICATE_MAX_DUAL_DIM, rate_certificate, rel_err_snr, \
    write_csv, write_lines, write_trace_csv
from .linops import PowerIterationError
from .schedules import ScheduleSpec
from .solvers import StoppingRule, chambolle_pock, ifp2o, pdfp2o, pdfp2o_ds, \
    pdfp2o_dsn, pdfp2o_kappa, pfbs_fp2o, siu
from .tomo import DEFAULT_CT_REG_WEIGHT, POWER_CHANNEL, TomoGeometry, \
    make_deblur_problem, make_denoise_problem, make_lasso_problem, make_tomo_problem, \
    make_tv_problem, seed_stream, write_pgm


class ConfigError(ValueError):
    """A config file could not be parsed or validated."""


# Errors reported as ``error: ...`` with exit code 1 instead of a traceback;
# ConfigError and UnsupportedProblemError are ValueErrors.
_USER_ERRORS = (ValueError, PowerIterationError)

# key -> (parser, default); "auto" stands for a problem-derived value.
_AUTO = "auto"


def _auto_or_num(text):
    return _AUTO if text == _AUTO else float(text)


CONFIG_KEYS = {
    "problem.kind": (str, "denoise"),
    "problem.size": (int, 32),
    "problem.noise": (float, 0.01),
    "problem.reg_weight": (_auto_or_num, _AUTO),
    "problem.tv": (str, "anisotropic"),
    "problem.angle_step": (float, 10.0),
    "problem.angle_count": (int, 18),
    "problem.rays": (_auto_or_num, _AUTO),
    "problem.blur_radius": (int, 2),
    "problem.blur_sigma": (float, 1.5),
    "solver.name": (str, "pdfp2o"),
    "solver.gamma": (_auto_or_num, _AUTO),
    "solver.lambda": (_auto_or_num, _AUTO),
    "solver.kappa": (_auto_or_num, _AUTO),
    "solver.theta": (float, 1.0),
    "solver.inner_tol": (float, 1e-10),
    "solver.inner_max_iter": (int, 200),
    "solver.sigma_strong": (_auto_or_num, _AUTO),
    "schedule.kind": (str, "constant"),
    "schedule.alpha": (float, 0.0),
    "schedule.decay": (float, 0.0),
    "schedule.gamma_lo": (_auto_or_num, _AUTO),
    "schedule.gamma_hi": (_auto_or_num, _AUTO),
    "schedule.lambda_lo": (_auto_or_num, _AUTO),
    "schedule.lambda_hi": (_auto_or_num, _AUTO),
    "schedule.alpha_lo": (float, 0.1),
    "schedule.alpha_hi": (float, 0.9),
    "run.max_iter": (int, 2000),
    "run.tol": (float, 1e-8),
    "run.seed": (int, 0),
    "run.output_dir": (str, "out"),
}

# The solver and schedule keys each solver reads; a solver that reads
# schedule.kind reads that kind's keys too, and the alpha clamp with alpha.
# certify reads its own row. The keys name the solvers and schedule kinds.
_STEPS = ("solver.gamma", "solver.lambda")
_SOLVER_READS = {
    "pdfp2o": _STEPS, "pdfp2o_kappa": _STEPS + ("solver.kappa",),
    "pdfp2o_ds": _STEPS + ("schedule.kind",),
    "pdfp2o_dsn": _STEPS + ("schedule.kind", "schedule.alpha"),
    "pfbs_fp2o": _STEPS + ("solver.kappa", "solver.inner_tol", "solver.inner_max_iter"),
    "ifp2o": ("solver.lambda", "solver.kappa"), "cp": _STEPS + ("solver.theta",), "siu": _STEPS,
}
_CLAMP = tuple(f"schedule.{k}_{e}" for k in ("gamma", "lambda", "alpha") for e in ("lo", "hi"))
_SCHEDULE_READS = {"constant": (), "bb_dynamic": _CLAMP,
                   "convergent_perturbation": ("schedule.decay",)}
_CERTIFY_READS = _STEPS + ("solver.sigma_strong", "schedule.alpha", "schedule.alpha_lo",
                           "schedule.alpha_hi")
# reg_weight = auto, per problem kind; the keys name the problem kinds
_AUTO_REG_WEIGHT = {"ct": DEFAULT_CT_REG_WEIGHT, "denoise": 0.1, "deblur": 0.02, "lasso": 0.05}
PROBLEM_KINDS, SOLVER_NAMES = tuple(_AUTO_REG_WEIGHT), tuple(_SOLVER_READS)
SCHEDULE_KINDS = tuple(_SCHEDULE_READS)

# Keys that must agree for two configs to target the same experiment.
PROBLEM_IDENTITY_KEYS = tuple(k for k in CONFIG_KEYS if k.startswith("problem.")) + ("run.seed",)


def parse_config_text(text):
    """Parse ``key = value`` lines with ``#`` comments into a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


@dataclass
class ExperimentConfig:
    """Typed, validated view of one experiment's configuration."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    @classmethod
    def load(cls, path, overrides=None):
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw = parse_config_text(text)
        if overrides:
            raw.update({k: str(v) for k, v in overrides.items() if v is not None})
        values = {}
        for key, value in raw.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key: {key}")
            parser, _ = CONFIG_KEYS[key]
            try:
                values[key] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
        for key, (parser, default) in CONFIG_KEYS.items():
            values.setdefault(key, default)
        cfg = cls(values)
        cfg._validate()
        return cfg

    def _validate(self):
        v = self.values
        if v["problem.kind"] not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind: {v['problem.kind']}")
        if v["solver.name"] not in SOLVER_NAMES:
            raise ConfigError(f"unknown solver: {v['solver.name']}")
        if v["schedule.kind"] not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind: {v['schedule.kind']}")
        if v["problem.tv"] not in ("anisotropic", "isotropic"):
            raise ConfigError("problem.tv must be anisotropic or isotropic")
        if v["problem.size"] < 16:
            raise ConfigError("problem.size must be at least 16")
        if not 0.0 <= v["problem.noise"] < math.inf:
            raise ConfigError("problem.noise must be a nonnegative finite number")
        for prefix in ("run.", "solver.inner_"):
            if v[prefix + "max_iter"] < 1:
                raise ConfigError(f"{prefix}max_iter must be positive")
            try:
                StoppingRule(tol=v[prefix + "tol"], max_iter=v[prefix + "max_iter"])
            except ValueError as exc:
                raise ConfigError(f"bad {prefix}tol or {prefix}max_iter: {exc}") from exc

    @property
    def tv_variant(self):
        return "anisotropic" if self["problem.tv"] == "anisotropic" else "isotropic-pair"

    def reg_weight(self):
        w = self["problem.reg_weight"]
        return _AUTO_REG_WEIGHT[self["problem.kind"]] if w == _AUTO else w

    def build_problem(self):
        """Build (Problem, x_true_image, meta) from the problem section."""
        kind = self["problem.kind"]
        n = self["problem.size"]
        noise = self["problem.noise"]
        seed = self["run.seed"]
        w = self.reg_weight()
        if kind == "ct":
            power_seed = seed_stream(seed, POWER_CHANNEL)
            rays = self["problem.rays"]
            rays = int(round(math.sqrt(2.0) * n)) if rays == _AUTO else int(rays)
            step = self["problem.angle_step"]
            angles = tuple(step * k for k in range(self["problem.angle_count"]))
            geom = TomoGeometry(image_side=n, angles_deg=angles, rays_per_angle=rays)
            tp = make_tomo_problem(geom, noise, seed)
            problem = make_tv_problem(tp, w, self.tv_variant, power_seed=power_seed)
            return problem, tp.x_true, {"geometry": geom}
        if kind == "denoise":
            problem, x_true = make_denoise_problem(n, noise, seed, w, self.tv_variant)
            return problem, x_true, {}
        if kind == "deblur":
            problem, x_true = make_deblur_problem(
                n, self["problem.blur_radius"], self["problem.blur_sigma"],
                noise, seed, w, self.tv_variant,
            )
            return problem, x_true, {}
        problem, x_true = make_lasso_problem(n, noise, seed, w)
        return problem, x_true, {}

    def resolve_steps(self, problem):
        gamma = self["solver.gamma"]
        lam = self["solver.lambda"]
        gamma = 1.99 * problem.beta if gamma == _AUTO else gamma
        lam = problem.lambda_hi if lam == _AUTO else lam
        return gamma, lam

    def schedule_spec(self, gamma, lam, alpha):
        ends = [self[k] for k in ("schedule.gamma_lo", "schedule.gamma_hi",
                                  "schedule.lambda_lo", "schedule.lambda_hi")]
        if _AUTO in ends and ends != [_AUTO] * 4:
            raise ConfigError("set all of schedule.gamma_lo/gamma_hi/lambda_lo/lambda_hi together")
        # ends left at auto take the schedule's defaults; the alpha ends always apply
        clamp = tuple(None if e == _AUTO else e for e in ends) + (
            self["schedule.alpha_lo"], self["schedule.alpha_hi"],
        )
        return ScheduleSpec(
            kind=self["schedule.kind"], gamma0=gamma, lambda0=lam,
            alpha0=alpha, decay=self["schedule.decay"], clamp=clamp,
        )


def _keys_read(cfg, for_certify=False):
    """``cfg``; a ConfigError if it sets a solver or schedule key its run (or
    ``certify``) never reads."""
    name, kind = cfg["solver.name"], cfg["schedule.kind"]
    who, reads = f"{name} (schedule.kind {kind})", {"solver.name", *_SOLVER_READS[name]}
    if for_certify:
        who, reads = "certify", {"solver.name", *_CERTIFY_READS}
    elif "schedule.kind" in reads:
        reads.update(k for k in _SCHEDULE_READS[kind]
                     if "alpha" not in k or "schedule.alpha" in reads)
    unread = [k for k, (_, default) in CONFIG_KEYS.items()
              if k.startswith(("solver.", "schedule.")) and k not in reads and cfg[k] != default]
    if unread:
        raise ConfigError(f"{who} never reads {', '.join(unread)}")
    return cfg


def _run_solver(cfg, problem, x_true):
    """Dispatch the configured solver; returns (x_final, trace)."""
    name = cfg["solver.name"]
    gamma, lam = cfg.resolve_steps(problem)
    stop = StoppingRule(tol=cfg["run.tol"], max_iter=cfg["run.max_iter"])
    xt = x_true.ravel()
    kappa = cfg["solver.kappa"]
    if name == "pdfp2o":
        u, tr = pdfp2o(problem, gamma, lam, stop=stop, x_true=xt)
        return u.x, tr
    if name == "pdfp2o_kappa":
        k = 0.5 if kappa == _AUTO else kappa
        u, tr = pdfp2o_kappa(problem, gamma, lam, k, stop=stop, x_true=xt)
        return u.x, tr
    if name == "pdfp2o_ds":
        sched = cfg.schedule_spec(gamma, lam, cfg["schedule.alpha"]).build(problem)
        u, tr = pdfp2o_ds(problem, sched, stop=stop, x_true=xt)
        return u.x, tr
    if name == "pdfp2o_dsn":
        alpha = cfg["schedule.alpha"] or 0.5
        sched = cfg.schedule_spec(gamma, lam, alpha).build(problem)
        u, tr = pdfp2o_dsn(problem, sched, stop=stop, x_true=xt)
        return u.x, tr
    if name == "pfbs_fp2o":
        k = 0.0 if kappa == _AUTO else kappa
        inner = StoppingRule(tol=cfg["solver.inner_tol"], max_iter=cfg["solver.inner_max_iter"])
        u, tr = pfbs_fp2o(problem, gamma, lam, k, inner, stop=stop, x_true=xt)
        return u.x, tr
    if name == "ifp2o":
        n = problem.D.in_dim
        if n > 1024:
            raise ConfigError("ifp2o needs a dense system; use problem.size <= 32")
        if problem.f2.A.tag != "identity":
            raise ConfigError("ifp2o supports identity data operators only (denoise/lasso)")
        k = 0.5 if kappa == _AUTO else kappa
        x, tr = ifp2o(np.eye(n), problem.f2.b, problem.f1, problem.D, lam, k, stop=stop)
        return x, tr
    if name == "cp":
        lam_cp = min(lam, 0.99 * problem.lambda_hi)
        u, tr = chambolle_pock(
            problem, lam_cp / gamma, gamma, cfg["solver.theta"], stop=stop, x_true=xt
        )
        return u.x, tr
    # siu: gamma and lambda fix the penalty nu; the step delta sits inside
    # the convergent range delta < 1 / (L + nu * lambda_max(D D^T)).
    nu = lam / gamma
    delta = 0.9 / (problem.f2.lipschitz + nu * problem.lambda_max_ddt)
    state, tr = siu(problem, delta, nu, stop=stop, x_true=xt)
    return state.x, tr


def _output_dir(cfg):
    env = os.environ.get("PDFP_OUTPUT_DIR")
    return Path(env) if env else Path(cfg["run.output_dir"])


def _write_summary(path, cfg, trace, final_snr, final_rel):
    write_lines(path, [
        f"solver={cfg['solver.name']}",
        f"problem={cfg['problem.kind']}",
        f"iterations={trace.n_iter}",
        f"converged={'true' if trace.converged else 'false'}",
        f"stop_reason={trace.stop_reason}",
        f"objective={float(trace.objectives[-1])!r}",
        f"snr_db={float(final_snr)!r}",
        f"relerr={float(final_rel)!r}",
        f"wall_ms={float(trace.wall_ms[-1])!r}",
    ])


def run_experiment(config_path, overrides=None):
    """Run one configured experiment and write its artifacts.

    Returns the process exit code: 0 converged, 2 budget exhausted,
    3 diverged, 1 configuration error (in which case nothing is written).
    """
    try:
        cfg = _keys_read(ExperimentConfig.load(config_path, overrides))
        problem, x_true, _ = cfg.build_problem()
        x_final, trace = _run_solver(cfg, problem, x_true)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out / "trace.csv")
    write_pgm(out / "recon.pgm", x_final.reshape(x_true.shape))
    final_rel, final_snr = rel_err_snr(x_final, x_true.ravel())
    _write_summary(out / "summary.txt", cfg, trace, final_snr, final_rel)
    return {"converged": 0, "budget": 2, "diverged": 3}[trace.stop_reason]


SNR_THRESHOLDS = (15.0, 20.0, 23.0)


def _first_crossing(snrs, threshold):
    hits = np.nonzero(snrs >= threshold)[0]
    return int(hits[0]) + 1 if hits.size else None


def compare(config_path_a, config_path_b, out_path, overrides=None):
    """Run two configs over the same problem and write paired quality columns.

    The merged CSV holds iteration-aligned SNR/RelErr for both runs; rows
    past a run's end hold NaN. Prints the first iteration at which each run
    crosses the 15/20/23 dB marks. Both configs must describe the same
    problem and seed.
    """
    try:
        cfg_a, cfg_b = (_keys_read(ExperimentConfig.load(path, overrides))
                        for path in (config_path_a, config_path_b))
        for key in PROBLEM_IDENTITY_KEYS:
            if cfg_a[key] != cfg_b[key]:
                raise ConfigError(
                    f"configs disagree on {key}: {cfg_a[key]!r} vs {cfg_b[key]!r}"
                )
        # the identity keys match and assembly is deterministic, so one
        # problem serves both runs
        problem, x_true, _ = cfg_a.build_problem()
        _, tr_a = _run_solver(cfg_a, problem, x_true)
        _, tr_b = _run_solver(cfg_b, problem, x_true)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = max(len(tr_a.iters), len(tr_b.iters))
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)

    def col(arr):
        out = np.full(rows, math.nan)
        out[: len(arr)] = arr
        return out

    write_csv(out_path, "iter,snr_a,relerr_a,snr_b,relerr_b",
              (np.arange(1, rows + 1), col(tr_a.snrs), col(tr_a.relerrs),
               col(tr_b.snrs), col(tr_b.relerrs)))
    for label, tr in (("a", tr_a), ("b", tr_b)):
        for thr in SNR_THRESHOLDS:
            hit = _first_crossing(tr.snrs, thr)
            where = f"iteration {hit}" if hit is not None else "never"
            print(f"run_{label} crosses {thr:g} dB at {where}")
    return 0


def certify(config_path, overrides=None):
    """Emit the geometric-rate certificate for a configured problem as CSV.

    Needs strong convexity of the data term and full row rank of the
    analysis operator (the ``lasso`` problem kind satisfies both). Returns
    exit code 1 when the certificate does not apply.
    """
    try:
        cfg = _keys_read(ExperimentConfig.load(config_path, overrides), for_certify=True)
        problem, x_true, _ = cfg.build_problem()
        gamma, lam = cfg.resolve_steps(problem)
        sig = cfg["solver.sigma_strong"]
        if sig == _AUTO:
            if problem.f2.A.tag != "identity":
                raise ConfigError(
                    "solver.sigma_strong=auto needs an identity data operator; set it explicitly"
                )
            sig = 1.0
        cert = rate_certificate(
            problem, gamma, lam,
            cfg["schedule.alpha_lo"], cfg["schedule.alpha_hi"], sig,
            alpha0=cfg["schedule.alpha"] or None,
        )
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cert is None:
        why = "contraction factors reach 1"
        if problem.D.out_dim > CERTIFICATE_MAX_DUAL_DIM:
            why = f"dual dimension {problem.D.out_dim} exceeds the limit of {CERTIFICATE_MAX_DUAL_DIM}"
        print(f"certificate not applicable: {why}", file=sys.stderr)
        return 1
    out = _output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "certificate.csv", "mu,nu,eta,theta,d",
              [[cert.mu], [cert.nu], [cert.eta], [cert.theta], [cert.d]])
    print(f"mu={cert.mu!r} nu={cert.nu!r} theta={cert.theta!r} d={cert.d!r}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pdfp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "compare", "certify"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
        if name == "compare":
            sp.add_argument("config_b")
            sp.add_argument("--out", required=True)
        sp.add_argument("--max-iter", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    overrides = {
        "run.max_iter": args.max_iter,
        "run.tol": args.tol,
        "run.seed": args.seed,
    }
    if args.command == "solve":
        return run_experiment(args.config, overrides)
    if args.command == "compare":
        return compare(args.config, args.config_b, args.out, overrides)
    return certify(args.config, overrides)


if __name__ == "__main__":
    sys.exit(main())
