"""Experiment runner: build a problem from a config file, solve, write artifacts.

Config files are plain text, one ``section.key = value`` per line, with ``#``
comments. The full key table is documented in the README. Subcommands:

* ``solve <config>``: run one solver, write ``trace.csv``, ``recon.pgm``,
  ``summary.txt`` into the output directory.
* ``compare <config_a> <config_b> --out <path>``: run two configs on the
  same problem and write an iteration-aligned quality CSV.
* ``certify <config>``: emit the geometric-rate certificate of the configured
  run as CSV when the problem supports one.

Exit codes: 0 on success/convergence, 2 when the iteration budget ran out,
3 when ``solve`` diverged (a step's change came out non-finite), 1 on
command-line usage errors, on configuration errors (including unknown keys
and mismatched compares), when a spectral bound cannot be estimated and
when the certificate does not apply.
"""

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .diagnostics import rate_certificate, write_csv, write_lines, write_trace_csv
from .linops import PowerIterationError
from .schedules import GAMMA_CLAMP_FRACTIONS, RELAXATION_WEIGHT, ScheduleSpec
from .solvers import StoppingRule, chambolle_pock, pdfp2o, pdfp2o_ds, pdfp2o_dsn, \
    pdfp2o_kappa, pfbs_fp2o, siu
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


def _auto_or(parse):
    return lambda text: _AUTO if text == _AUTO else parse(text)


CONFIG_KEYS = {
    "problem.kind": (str, "denoise"),
    "problem.size": (int, 32),
    "problem.noise": (float, 0.01),
    "problem.reg_weight": (_auto_or(float), _AUTO),
    "problem.tv": (str, "anisotropic"),
    "problem.angle_step": (float, 10.0),
    "problem.angle_count": (int, 18),
    "problem.rays": (_auto_or(int), _AUTO),
    "problem.blur_radius": (int, 2),
    "problem.blur_sigma": (float, 1.5),
    "solver.name": (str, "pdfp2o"),
    "solver.gamma": (_auto_or(float), _AUTO),
    "solver.lambda": (_auto_or(float), _AUTO),
    "solver.kappa": (_auto_or(float), _AUTO),
    "solver.theta": (float, 1.0),
    "solver.inner_tol": (float, 1e-10),
    "solver.inner_max_iter": (int, 200),
    "schedule.kind": (str, "constant"),
    "schedule.alpha": (_auto_or(float), _AUTO),
    "schedule.decay": (float, 0.0),
    "schedule.gamma_lo": (_auto_or(float), _AUTO),
    "schedule.gamma_hi": (_auto_or(float), _AUTO),
    "run.max_iter": (int, 2000),
    "run.tol": (float, 1e-8),
    "run.seed": (int, 0),
    "run.output_dir": (str, "out"),
}

# The solver and schedule keys each solver reads; a solver that reads
# schedule.kind reads that kind's keys too. certify reads its own row. The
# keys name the solvers and schedule kinds.
_STEPS = ("solver.gamma", "solver.lambda")
_SOLVER_READS = {
    "pdfp2o": _STEPS, "pdfp2o_kappa": _STEPS + ("solver.kappa",),
    "pdfp2o_ds": ("solver.lambda", "schedule.kind"),
    "pdfp2o_dsn": ("solver.lambda", "schedule.kind", "schedule.alpha"),
    "pfbs_fp2o": _STEPS + ("solver.kappa", "solver.inner_tol", "solver.inner_max_iter"),
    "cp": _STEPS + ("solver.theta",), "siu": _STEPS,
}
_SCHEDULE_READS = {"constant": ("solver.gamma",),
                   "bb_dynamic": ("schedule.gamma_lo", "schedule.gamma_hi"),
                   "convergent_perturbation": ("solver.gamma", "schedule.decay")}
_CERTIFY_READS = _STEPS + ("schedule.alpha",)
# The problem keys each problem kind reads besides problem.kind, size, noise
# and reg_weight, which every kind reads.
_TV = ("problem.tv",)
_PROBLEM_READS = {"ct": ("problem.angle_step", "problem.angle_count", "problem.rays") + _TV,
                  "denoise": _TV, "deblur": _TV + ("problem.blur_radius", "problem.blur_sigma"),
                  "lasso": ()}
# reg_weight = auto, per problem kind; the keys name the problem kinds. Deblur's
# is near the SNR peak of 2000 default-step pdfp2o iterations at sizes 16 to 64.
_AUTO_REG_WEIGHT = {"ct": DEFAULT_CT_REG_WEIGHT, "denoise": 0.1, "deblur": 3e-5, "lasso": 0.05}
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


class ExperimentConfig(dict):
    """Typed, validated view of one experiment's configuration, a dict over ``CONFIG_KEYS``."""

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
        if self["problem.kind"] not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind: {self['problem.kind']}")
        if self["solver.name"] not in SOLVER_NAMES:
            raise ConfigError(f"unknown solver: {self['solver.name']}")
        if self["schedule.kind"] not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind: {self['schedule.kind']}")
        if self["problem.tv"] not in ("anisotropic", "isotropic"):
            raise ConfigError("problem.tv must be anisotropic or isotropic")
        if self["problem.size"] < 16:
            raise ConfigError("problem.size must be at least 16")
        if not 0.0 <= self["problem.noise"] < math.inf:
            raise ConfigError("problem.noise must be a nonnegative finite number")
        if self["run.seed"] < 0:
            raise ConfigError("run.seed must be a nonnegative integer")
        for prefix in ("run.", "solver.inner_"):
            if self[prefix + "max_iter"] < 1:
                raise ConfigError(f"{prefix}max_iter must be positive")
            try:
                StoppingRule(tol=self[prefix + "tol"], max_iter=self[prefix + "max_iter"])
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
            rays = int(round(math.sqrt(2.0) * n)) if rays == _AUTO else rays
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
        gamma = GAMMA_CLAMP_FRACTIONS[1] * problem.beta if gamma == _AUTO else gamma
        lam = problem.lambda_hi if lam == _AUTO else lam
        return gamma, lam

    def schedule_spec(self, gamma, lam, alpha):
        ends = [self["schedule.gamma_lo"], self["schedule.gamma_hi"]]
        if ends.count(_AUTO) == 1:
            raise ConfigError("set schedule.gamma_lo and schedule.gamma_hi together")
        # ends left at auto take the schedule's defaults
        return ScheduleSpec(
            kind=self["schedule.kind"], gamma0=gamma, lambda0=lam,
            alpha0=None if alpha == _AUTO else alpha, decay=self["schedule.decay"],
            clamp=tuple(None if e == _AUTO else e for e in ends),
        )


def _reject_unread(cfg, who, section, reads):
    """A ConfigError naming the keys of ``section`` that ``cfg`` sets away from
    their defaults and ``who`` never reads, if there are any."""
    unread = [k for k, (_, default) in CONFIG_KEYS.items()
              if k.startswith(section) and k not in reads and cfg[k] != default]
    if unread:
        raise ConfigError(f"{who} never reads {', '.join(unread)}")


def _keys_read(cfg, for_certify=False):
    """``cfg``; a ConfigError if it sets a problem key its problem kind never
    reads, or a solver or schedule key its run (or ``certify``) never reads."""
    problem = cfg["problem.kind"]
    _reject_unread(cfg, f"problem.kind {problem}", "problem.",
                   ("problem.kind", "problem.size", "problem.noise", "problem.reg_weight")
                   + _PROBLEM_READS[problem])
    name, kind = cfg["solver.name"], cfg["schedule.kind"]
    who, reads = f"{name} (schedule.kind {kind})", {"solver.name", *_SOLVER_READS[name]}
    if for_certify:
        who, reads = "certify", {"solver.name", *_CERTIFY_READS}
    elif "schedule.kind" in reads:
        reads.update(_SCHEDULE_READS[kind])
    _reject_unread(cfg, who, ("solver.", "schedule."), reads)
    return cfg


def _run_solver(cfg, problem, x_true):
    """Dispatch the configured solver; returns (x_final, trace)."""
    name = cfg["solver.name"]
    gamma, lam = cfg.resolve_steps(problem)
    stop = StoppingRule(tol=cfg["run.tol"], max_iter=cfg["run.max_iter"])
    xt = x_true.ravel()
    kappa = cfg["solver.kappa"]
    if kappa == _AUTO:  # the relaxation weight; pfbs_fp2o's inner loop is not averaged
        kappa = 0.0 if name == "pfbs_fp2o" else RELAXATION_WEIGHT
    if name == "pdfp2o":
        u, tr = pdfp2o(problem, gamma, lam, stop=stop, x_true=xt)
        return u.x, tr
    if name == "pdfp2o_kappa":
        u, tr = pdfp2o_kappa(problem, gamma, lam, kappa, stop=stop, x_true=xt)
        return u.x, tr
    if name in ("pdfp2o_ds", "pdfp2o_dsn"):
        sched = cfg.schedule_spec(gamma, lam, cfg["schedule.alpha"]).build(problem)
        solver = pdfp2o_ds if name == "pdfp2o_ds" else pdfp2o_dsn
        u, tr = solver(problem, sched, stop=stop, x_true=xt)
        return u.x, tr
    if name == "pfbs_fp2o":
        inner = StoppingRule(tol=cfg["solver.inner_tol"], max_iter=cfg["solver.inner_max_iter"])
        u, tr = pfbs_fp2o(problem, gamma, lam, kappa, inner, stop=stop, x_true=xt)
        return u.x, tr
    if name == "cp":
        # auto sits inside Chambolle-Pock's strict bound sigma*tau < 1/lambda_max
        lam_cp = 0.99 * problem.lambda_hi if cfg["solver.lambda"] == _AUTO else lam
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


def _output_dir(cfg, *names):
    """The run's output directory, ``PDFP_OUTPUT_DIR`` or ``run.output_dir``, checked by
    :func:`_makeable_dir` for the files ``names``."""
    env = os.environ.get("PDFP_OUTPUT_DIR")
    return _makeable_dir(Path(env) if env else Path(cfg["run.output_dir"]), *names)


def _makeable_dir(out, *names):
    """``out``; a ConfigError unless it, or else its nearest existing ancestor, is a
    directory, and none of the files ``names`` to be written in it is one. Nothing
    is made here, so a run refused later leaves no directory."""
    there = next((p for p in (out, *out.parents) if p.exists()), Path("."))
    if not there.is_dir():
        raise ConfigError(f"output directory {out} cannot be made: {there} is not a directory")
    for path in (out / name for name in names):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
    return out


def _write_summary(path, cfg, trace):
    write_lines(path, [
        f"solver={cfg['solver.name']}",
        f"problem={cfg['problem.kind']}",
        f"iterations={trace.n_iter}",
        f"converged={'true' if trace.converged else 'false'}",
        f"stop_reason={trace.stop_reason}",
        f"objective={float(trace.objectives[-1])!r}",
        f"snr_db={float(trace.snrs[-1])!r}",
        f"relerr={float(trace.relerrs[-1])!r}",
        f"wall_ms={float(trace.wall_ms[-1])!r}",
    ])


def run_experiment(config_path, overrides=None):
    """Run one configured experiment and write its artifacts.

    Returns the process exit code: 0 converged, 2 budget exhausted,
    3 diverged, 1 configuration error (in which case nothing is written).
    """
    try:
        cfg = _keys_read(ExperimentConfig.load(config_path, overrides))
        out = _output_dir(cfg, "trace.csv", "recon.pgm", "summary.txt")
        problem, x_true, _ = cfg.build_problem()
        x_final, trace = _run_solver(cfg, problem, x_true)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out / "trace.csv")
    write_pgm(out / "recon.pgm", x_final.reshape(x_true.shape))
    _write_summary(out / "summary.txt", cfg, trace)
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
        out_dir = _makeable_dir(Path(out_path).parent, Path(out_path).name)
        # the identity keys match and assembly is deterministic, so one
        # problem serves both runs
        problem, x_true, _ = cfg_a.build_problem()
        _, tr_a = _run_solver(cfg_a, problem, x_true)
        _, tr_b = _run_solver(cfg_b, problem, x_true)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = max(len(tr_a.iters), len(tr_b.iters))
    out_dir.mkdir(parents=True, exist_ok=True)

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
    """Emit the geometric-rate certificate of the configured run as CSV.

    The run is the constant-step one the keys describe: ``solver.gamma``,
    ``solver.lambda`` and the relaxation weight ``schedule.alpha`` (``auto``:
    0.5) on every step, the first included. The data operator must be the
    identity, whose strong-convexity modulus is 1, and the analysis operator
    of full row rank (the ``lasso`` problem kind has both). Returns exit
    code 1, writing nothing, when the certificate does not apply.
    """
    try:
        cfg = _keys_read(ExperimentConfig.load(config_path, overrides), for_certify=True)
        out = _output_dir(cfg, "certificate.csv")
        problem, x_true, _ = cfg.build_problem()
        if problem.f2.A.tag != "identity":
            raise ConfigError("certify needs an identity data operator (strong convexity 1)")
        gamma, lam = cfg.resolve_steps(problem)
        alpha = cfg["schedule.alpha"]
        alpha = RELAXATION_WEIGHT if alpha == _AUTO else alpha
        cert = rate_certificate(problem, gamma, lam, alpha, alpha, 1.0, alpha0=alpha)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "certificate.csv", "mu,nu,eta,theta,d",
              [[cert.mu], [cert.nu], [cert.eta], [cert.theta], [cert.d]])
    print(f"mu={cert.mu!r} nu={cert.nu!r} theta={cert.theta!r} d={cert.d!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors exit 1, as every other user error
    does; argparse's own 2 is the code of a run whose budget ran out."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(prog="pdfp", description=__doc__)
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
