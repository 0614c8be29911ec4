import csv
import math
import os
from pathlib import Path

import numpy as np
import pytest

import pdfp.linops
from pdfp import PowerIterationError, StoppingRule, chambolle_pock, constant_schedule, ifp2o, \
    make_denoise_problem, pdfp2o, pdfp2o_ds, pdfp2o_dsn, pdfp2o_kappa, pfbs_fp2o, siu, \
    write_trace_csv
from pdfp.cli import CONFIG_KEYS, SOLVER_NAMES, ExperimentConfig, ConfigError, certify, \
    compare, main, parse_config_text, run_experiment


def write_cfg(path, **overrides):
    base = {
        "problem.kind": "denoise",
        "problem.size": "16",
        "problem.noise": "0.05",
        "problem.reg_weight": "0.1",
        "solver.name": "pdfp2o",
        "run.max_iter": "300",
        "run.tol": "1e-7",
        "run.seed": "3",
        "run.output_dir": str(path.parent / "out"),
    }
    base.update({k: str(v) for k, v in overrides.items()})
    path.write_text("# test config\n" + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


def read_trace_without_wall(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    return [row[:-1] for row in rows]


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        raw = parse_config_text("# hi\nproblem.kind = ct\n\nrun.seed=5\n")
        assert raw == {"problem.kind": "ct", "run.seed": "5"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("problem.kind ct\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("run.seed=1\nrun.seed=2\n")

    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem.kindd = ct\n")
        with pytest.raises(ConfigError, match="problem.kindd"):
            ExperimentConfig.load(cfg)

    def test_unknown_solver_named(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **{"solver.name": "sgd"})
        with pytest.raises(ConfigError, match="sgd"):
            ExperimentConfig.load(cfg)


_LASSO = {"problem.kind": "lasso", "solver.gamma": "1.0", "schedule.alpha": "0.5"}
# A NaN or infinite value per key, and the words that name it in the error.
NON_FINITE_KEYS = {
    "noise-nan": ({"problem.noise": "nan"}, "problem.noise must be a nonnegative finite"),
    "noise-inf": ({"problem.noise": "inf"}, "problem.noise must be a nonnegative finite"),
    "reg-weight-nan": ({"problem.reg_weight": "nan"}, "reg_weight must be a positive finite"),
    "reg-weight-inf": ({"problem.reg_weight": "inf"}, "reg_weight must be a positive finite"),
    "blur-sigma-nan": ({"problem.kind": "deblur", "problem.blur_sigma": "nan"},
                       "sigma must be a positive finite"),
    "inner-tol-inf": ({"solver.name": "pfbs_fp2o", "solver.inner_tol": "inf"},
                      "solver.inner_tol"),
    "run-tol-inf": ({"run.tol": "inf"}, "tol=inf must be a nonnegative finite"),
    "angle-step-nan": ({"problem.kind": "ct", "problem.angle_step": "nan"},
                       "angles must lie in [0, 180)"),
    "certify-sigma-strong-nan": (dict(_LASSO, **{"solver.sigma_strong": "nan"}),
                                 "sigma must be a positive finite"),
}


class TestSolve:
    def test_writes_artifacts_and_converges(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **{"run.tol": "1e-5", "run.max_iter": "5000"})
        assert run_experiment(cfg) == 0
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "recon.pgm").exists()
        summary = (out / "summary.txt").read_text()
        assert "converged=true" in summary
        assert "snr_db=" in summary

    def test_budget_exhaustion_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **{"run.max_iter": "3", "run.tol": "1e-14"})
        assert run_experiment(cfg) == 2
        assert "converged=false" in (tmp_path / "out" / "summary.txt").read_text()

    def test_summary_records_stop_reason(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **{"run.tol": "1e-5", "run.max_iter": "5000"})
        assert run_experiment(cfg) == 0
        assert "stop_reason=converged" in (tmp_path / "out" / "summary.txt").read_text()
        cfg = write_cfg(tmp_path / "c.cfg", **{"run.max_iter": "3", "run.tol": "1e-14"})
        assert run_experiment(cfg) == 2
        assert "stop_reason=budget" in (tmp_path / "out" / "summary.txt").read_text()

    @pytest.mark.parametrize("solver", ["pdfp2o", "pfbs_fp2o", "cp", "siu"])
    def test_nan_data_exits_diverged(self, tmp_path, monkeypatch, solver):
        # problem.noise = nan is refused, so the NaN data comes from the noise step
        monkeypatch.setattr(pdfp.tomo, "add_relative_noise",
                            lambda clean, level, rng: clean + math.nan)
        cfg = write_cfg(tmp_path / "c.cfg", **{"solver.name": solver,
                                               "run.max_iter": "500", "run.tol": "0"})
        assert run_experiment(cfg) == 3
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "stop_reason=diverged" in summary
        assert "iterations=1\n" in summary
        assert (tmp_path / "out" / "recon.pgm").exists()

    @pytest.mark.parametrize("case", sorted(NON_FINITE_KEYS))
    def test_non_finite_value_exits_before_writing(self, tmp_path, capsys, case):
        # each once ran: exit 3 (diverged) or 2 (budget) with artifacts,
        # 0 (converged at once, or a certificate with nu=nan), or 1 with
        # "A must be nonzero"
        extra, named = NON_FINITE_KEYS[case]
        cfg = write_cfg(tmp_path / "c.cfg", **{"run.max_iter": "20", **extra})
        run = certify if case.startswith("certify") else run_experiment
        assert run(cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_writes_nothing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem.kind = warp\n" + f"run.output_dir = {tmp_path / 'out'}\n")
        assert run_experiment(cfg) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("run.tol", "nan"), ("solver.inner_tol", "nan"), ("solver.inner_max_iter", "-1"),
        ("solver.inner_max_iter", "0")])
    def test_bad_stopping_value_exits_before_solving(self, tmp_path, capsys, key, value):
        # each once ran out the budget silently and exited 2, or (a zero inner
        # budget) converged to the minimizer of the data term alone and exited 0
        cfg = write_cfg(tmp_path / "c.cfg", **{"solver.name": "pfbs_fp2o", "run.max_iter": "5",
                                               key: value})
        assert run_experiment(cfg) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_is_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg")
        run_experiment(cfg)
        out = tmp_path / "out"
        trace1 = read_trace_without_wall(out / "trace.csv")
        recon1 = (out / "recon.pgm").read_bytes()
        run_experiment(cfg)
        assert read_trace_without_wall(out / "trace.csv") == trace1
        assert (out / "recon.pgm").read_bytes() == recon1

    @pytest.mark.parametrize("solver", ["pdfp2o_ds", "pdfp2o_dsn", "pfbs_fp2o", "cp", "siu"])
    def test_all_solvers_run(self, tmp_path, solver):
        extra = {"solver.name": solver, "run.max_iter": "50", "run.tol": "0"}
        if solver == "pdfp2o_ds":
            extra["schedule.kind"] = "bb_dynamic"
        if solver == "siu":
            extra["solver.gamma"] = "0.05"
            extra["solver.lambda"] = "0.05"
        cfg = write_cfg(tmp_path / f"{solver}.cfg", **extra)
        assert run_experiment(cfg) == 2  # fixed budget, tolerance disabled

    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    def test_solver_defaults_match_library_call(self, tmp_path, solver):
        # the documented per-solver defaults, spelled out against the library
        cfg = write_cfg(tmp_path / "c.cfg", **{"solver.name": solver, "run.max_iter": "30",
                                               "run.tol": "0"})
        assert run_experiment(cfg) == 2
        p, x_true = make_denoise_problem(16, 0.05, 3, 0.1)
        g, l, xt = 1.99 * p.beta, p.lambda_hi, x_true.ravel()
        kw = dict(stop=StoppingRule(tol=0.0, max_iter=30), x_true=xt)
        runs = {
            "pdfp2o": lambda: pdfp2o(p, g, l, **kw),
            "pdfp2o_kappa": lambda: pdfp2o_kappa(p, g, l, 0.5, **kw),
            "pdfp2o_ds": lambda: pdfp2o_ds(p, constant_schedule(g, l, problem=p), **kw),
            "pdfp2o_dsn": lambda: pdfp2o_dsn(p, constant_schedule(g, l, 0.5, problem=p), **kw),
            "pfbs_fp2o": lambda: pfbs_fp2o(p, g, l, 0.0, StoppingRule(1e-10, 200), **kw),
            "ifp2o": lambda: ifp2o(np.eye(256), p.f2.b, p.f1, p.D, l, 0.5, stop=kw["stop"]),
            "cp": lambda: chambolle_pock(p, min(l, 0.99 * p.lambda_hi) / g, g, 1.0, **kw),
            "siu": lambda: siu(p, 0.9 / (p.f2.lipschitz + l / g * p.lambda_max_ddt), l / g,
                               **kw),
        }
        write_trace_csv(runs[solver]()[1], tmp_path / "lib.csv")
        assert (read_trace_without_wall(tmp_path / "out" / "trace.csv")
                == read_trace_without_wall(tmp_path / "lib.csv"))

    def test_siu_default_steps_converge(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", **{"solver.name": "siu", "run.max_iter": "200",
                                               "run.tol": "0"})
        assert run_experiment(cfg) == 2
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        objectives = [float(r["objective"]) for r in rows]
        snrs = [float(r["snr"]) for r in rows]
        assert objectives[-1] < objectives[0]
        assert all(math.isfinite(s) for s in snrs) and snrs[-1] > 0.0

    def test_ifp2o_on_lasso(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "l.cfg",
            **{"problem.kind": "lasso", "solver.name": "ifp2o", "run.tol": "1e-8"},
        )
        assert run_experiment(cfg) == 0

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "c.cfg", **{"run.max_iter": "5", "run.tol": "0"})
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("PDFP_OUTPUT_DIR", str(env_out))
        run_experiment(cfg)
        assert (env_out / "summary.txt").exists()
        assert not (tmp_path / "out").exists()

    def test_cli_flags_override_config(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg")
        code = main(["solve", str(cfg), "--max-iter", "4", "--tol", "1e-14"])
        assert code == 2
        assert "iterations=4" in (tmp_path / "out" / "summary.txt").read_text()


class TestCompare:
    def test_self_comparison_gives_identical_columns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "a.cfg", **{"run.max_iter": "40", "run.tol": "0"})
        out = tmp_path / "merged.csv"
        assert compare(cfg, cfg, out) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["iter", "snr_a", "relerr_a", "snr_b", "relerr_b"]
        for row in rows[1:]:
            assert row[1] == row[3] and row[2] == row[4]
        printed = capsys.readouterr().out
        assert "crosses 15 dB" in printed

    def test_problem_built_once(self, tmp_path, monkeypatch):
        calls = []
        build = ExperimentConfig.build_problem

        def counting_build(cfg):
            calls.append(cfg)
            return build(cfg)

        monkeypatch.setattr(ExperimentConfig, "build_problem", counting_build)
        a = write_cfg(tmp_path / "a.cfg", **{"run.max_iter": "5", "run.tol": "0"})
        b = write_cfg(tmp_path / "b.cfg", **{"solver.name": "pdfp2o_ds",
                                             "schedule.kind": "bb_dynamic",
                                             "run.max_iter": "5", "run.tol": "0"})
        assert compare(a, b, tmp_path / "m.csv") == 0
        assert len(calls) == 1

    def test_seed_mismatch_rejected(self, tmp_path):
        a = write_cfg(tmp_path / "a.cfg", **{"run.seed": "1"})
        b = write_cfg(tmp_path / "b.cfg", **{"run.seed": "2"})
        assert compare(a, b, tmp_path / "m.csv") == 1

    def test_problem_mismatch_rejected(self, tmp_path):
        a = write_cfg(tmp_path / "a.cfg", **{"problem.size": "16"})
        b = write_cfg(tmp_path / "b.cfg", **{"problem.size": "24"})
        assert compare(a, b, tmp_path / "m.csv") == 1

    def test_missing_output_directory_is_created(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", **{"run.max_iter": "5", "run.tol": "0"})
        out = tmp_path / "new" / "compare" / "merged.csv"
        assert main(["compare", str(cfg), str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith("iter,snr_a,relerr_a,snr_b,relerr_b\n")


class TestCertify:
    def test_lasso_certificate_written(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "l.cfg",
            **{"problem.kind": "lasso", "solver.gamma": "1.0", "schedule.alpha": "0.5"},
        )
        assert certify(cfg) == 0
        text = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        assert text[0] == "mu,nu,eta,theta,d"
        mu, nu, eta, theta, d = (float(v) for v in text[1].split(","))
        assert 0.0 <= eta < 1.0 and 0.0 < theta < 1.0 and d > 0.0

    def test_shipped_lasso_config_certifies(self, tmp_path, monkeypatch):
        # every key it sets is one certify reads
        monkeypatch.setenv("PDFP_OUTPUT_DIR", str(tmp_path / "out"))
        assert certify(Path(__file__).resolve().parents[1] / "configs" / "lasso_certify.cfg") == 0
        assert (tmp_path / "out" / "certificate.csv").exists()

    def test_tv_problem_not_certifiable(self, tmp_path, capsys):
        # the stacked difference operator is rank deficient, so the
        # strong-convexity route does not apply
        cfg = write_cfg(tmp_path / "d.cfg", **{"solver.sigma_strong": "1.0"})
        assert certify(cfg) == 1
        assert "contraction factors reach 1" in capsys.readouterr().err

    def test_size_limit_named_as_the_reason(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "d.cfg", **{"problem.size": "64"})
        assert certify(cfg) == 1
        err = capsys.readouterr().err
        assert "dual dimension 8192 exceeds" in err and "limit of 5000" in err
        assert not (tmp_path / "out").exists()


class TestAtomicArtifacts:
    @pytest.mark.parametrize(
        "target", ["trace.csv", "recon.pgm", "summary.txt", "merged.csv", "certificate.csv"])
    def test_failed_write_keeps_previous_artifact(self, tmp_path, monkeypatch, target):
        solve_cfg = write_cfg(tmp_path / "s.cfg", **{"run.max_iter": "20", "run.tol": "0"})
        cert_cfg = write_cfg(tmp_path / "l.cfg", **{"problem.kind": "lasso",
                                                    "solver.gamma": "1.0",
                                                    "schedule.alpha": "0.5"})
        out = tmp_path / "out"
        runs = [lambda o: run_experiment(solve_cfg, o),
                lambda o: compare(solve_cfg, solve_cfg, out / "merged.csv", o),
                lambda o: certify(cert_cfg, o)]
        assert [run(None) for run in runs] == [2, 0, 0]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == target:
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        # another seed and budget change every artifact's content
        failed = 0
        for run in runs:
            try:
                run({"run.max_iter": 7, "run.seed": 4})
            except OSError:
                failed += 1
        assert failed == 1
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(after) == sorted(before)
        assert after[target] == before[target]
        assert sum(after[name] != before[name] for name in before) >= 1


class TestScheduleClamp:
    def test_explicit_clamp_keys_feed_the_schedule(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **{
                "solver.name": "pdfp2o_ds",
                "schedule.kind": "bb_dynamic",
                "schedule.gamma_lo": "0.1",
                "schedule.gamma_hi": "1.5",
                "schedule.lambda_lo": "0.01",
                "schedule.lambda_hi": "0.1",
                "run.max_iter": "20",
                "run.tol": "0",
            },
        )
        assert run_experiment(cfg) == 2
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        lams = {row.split(",")[2] for row in trace[1:]}
        assert lams == {"0.1"}

    def test_partial_clamp_rejected(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            **{"solver.name": "pdfp2o_ds", "schedule.kind": "bb_dynamic",
               "schedule.gamma_lo": "0.1"},
        )
        assert run_experiment(cfg) == 1


# Keys that a solver or schedule never reads, each set away from its default:
# the run would ignore them, so solve and compare reject them before the
# problem is built.
UNREAD_KEYS = {
    "alpha-constant-ds": ({"solver.name": "pdfp2o_ds", "schedule.alpha": "0.7"},
                          ["schedule.alpha"]),
    "theta-ds": ({"solver.name": "pdfp2o_ds", "solver.theta": "0.2"}, ["solver.theta"]),
    "decay-constant-ds": ({"solver.name": "pdfp2o_ds", "schedule.decay": "3"},
                          ["schedule.decay"]),
    "kappa-pdfp2o": ({"solver.kappa": "0.3"}, ["solver.kappa"]),
    "inner-outside-pfbs": ({"solver.name": "pdfp2o_kappa", "solver.inner_tol": "1e-3",
                            "solver.inner_max_iter": "7"},
                           ["solver.inner_tol", "solver.inner_max_iter"]),
    "clamp-outside-bb": ({"solver.name": "pdfp2o_dsn", "schedule.gamma_lo": "0.1",
                          "schedule.gamma_hi": "1.5", "schedule.lambda_lo": "0.01",
                          "schedule.lambda_hi": "0.1", "schedule.alpha_lo": "0.2"},
                         ["schedule.gamma_lo", "schedule.gamma_hi", "schedule.lambda_lo",
                          "schedule.lambda_hi", "schedule.alpha_lo"]),
}


# Keys that certify never reads, on the lasso config it certifies.
CERTIFY_UNREAD_KEYS = {
    "theta-inner-decay": ({"solver.theta": "0.3", "solver.inner_max_iter": "7",
                           "schedule.decay": "2"},
                          ["solver.theta", "solver.inner_max_iter", "schedule.decay"]),
    "kappa-inner-tol": ({"solver.kappa": "0.3", "solver.inner_tol": "1e-3"},
                        ["solver.kappa", "solver.inner_tol"]),
    "schedule-kind-and-ends": ({"schedule.kind": "bb_dynamic", "schedule.gamma_lo": "0.1",
                                "schedule.gamma_hi": "1.5", "schedule.lambda_lo": "0.01",
                                "schedule.lambda_hi": "0.1"},
                               ["schedule.kind", "schedule.gamma_lo", "schedule.gamma_hi",
                                "schedule.lambda_lo", "schedule.lambda_hi"]),
}
_UNREAD_CASES = ([(command, case) for case in sorted(UNREAD_KEYS)
                  for command in ("compare", "solve")]
                 + [("certify", case) for case in sorted(CERTIFY_UNREAD_KEYS)])


@pytest.mark.parametrize("command,case", _UNREAD_CASES, ids=["-".join(c) for c in _UNREAD_CASES])
def test_keys_the_run_never_reads_are_rejected(tmp_path, monkeypatch, capsys, case, command):
    extra, unread = UNREAD_KEYS[case] if command != "certify" else CERTIFY_UNREAD_KEYS[case]
    if command == "certify":
        extra = dict(_LASSO, **extra)
    cfg = write_cfg(tmp_path / "c.cfg", **extra)
    built = []
    monkeypatch.setattr(ExperimentConfig, "build_problem",
                        lambda self: built.append(1) or pytest.fail("problem built"))
    argv = [command, str(cfg)]
    if command == "compare":
        argv += [str(write_cfg(tmp_path / "ok.cfg")), "--out", str(tmp_path / "m.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certify never reads " if command == "certify" else "error: ")
    assert err.split(" never reads ")[1].rstrip("\n").split(", ") == unread
    assert not built and not (tmp_path / "out").exists() and not (tmp_path / "m.csv").exists()


# One row per config key: the key's non-default value and the context in
# which it acts. Each run is 16x16 with 20 iterations.
_CLAMP = {"solver.name": "pdfp2o_ds", "schedule.kind": "bb_dynamic",
          "schedule.gamma_lo": "0.01", "schedule.gamma_hi": "1.99",
          "schedule.lambda_lo": "0.001", "schedule.lambda_hi": "0.1"}
_CT = {"problem.kind": "ct"}
_DEBLUR = {"problem.kind": "deblur"}
_PFBS = {"solver.name": "pfbs_fp2o"}
_DSN_BB = {"solver.name": "pdfp2o_dsn", "schedule.kind": "bb_dynamic"}
KEY_EFFECTS = {
    "problem.kind": ("deblur", {}),
    "problem.size": ("16", {}),
    "problem.noise": ("0.05", {}),
    "problem.reg_weight": ("0.3", {}),
    "problem.tv": ("isotropic", {}),
    "problem.angle_step": ("5", _CT),
    "problem.angle_count": ("6", _CT),
    "problem.rays": ("15", _CT),
    "problem.blur_radius": ("1", _DEBLUR),
    "problem.blur_sigma": ("0.8", _DEBLUR),
    "solver.name": ("siu", {}),
    "solver.gamma": ("1.0", {}),
    "solver.lambda": ("0.05", {}),
    "solver.kappa": ("0.3", {"solver.name": "pdfp2o_kappa"}),
    "solver.theta": ("0.5", {"solver.name": "cp"}),
    "solver.inner_tol": ("1e-2", _PFBS),
    "solver.inner_max_iter": ("3", _PFBS),
    # certify, on a problem the certificate covers
    "solver.sigma_strong": ("0.99", {"problem.kind": "lasso", "solver.gamma": "1.0"}),
    "schedule.kind": ("bb_dynamic", {"solver.name": "pdfp2o_ds"}),
    "schedule.alpha": ("0.3", {"solver.name": "pdfp2o_dsn"}),
    "schedule.decay": ("0.5", {"solver.name": "pdfp2o_ds",
                               "schedule.kind": "convergent_perturbation"}),
    # the four clamp ends are set together, so each is compared with the
    # context's value rather than with auto
    "schedule.gamma_lo": ("1.5", _CLAMP),
    "schedule.gamma_hi": ("0.5", _CLAMP),
    "schedule.lambda_lo": ("0.05", dict(_CLAMP, **{"solver.lambda": "0.01"})),
    "schedule.lambda_hi": ("0.05", _CLAMP),
    "schedule.alpha_lo": ("0.6", _DSN_BB),
    "schedule.alpha_hi": ("0.4", _DSN_BB),
    "run.max_iter": ("10", {}),
    "run.tol": ("0.1", {"solver.gamma": "1.0"}),
    "run.seed": ("3", {}),
    "run.output_dir": ("chosen", {}),
}


def _artifacts(out):
    """The files in ``out`` by name, without the wall-clock fields."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "trace.csv":
            files[path.name] = read_trace_without_wall(path)
        elif path.name == "summary.txt":
            files[path.name] = [line for line in path.read_text().splitlines()
                                if not line.startswith("wall_ms=")]
        else:
            files[path.name] = path.read_bytes()
    return files


def test_key_table_has_one_row_per_config_key():
    assert list(KEY_EFFECTS) == list(CONFIG_KEYS)


@pytest.mark.parametrize("key", list(KEY_EFFECTS))
def test_every_config_key_has_an_effect(tmp_path, monkeypatch, key):
    value, context = KEY_EFFECTS[key]
    command = "certify" if key == "solver.sigma_strong" else "solve"
    base = dict({"problem.size": "16", "run.max_iter": "20"}, **context)
    with_key = dict(base, **{key: value})
    # a key the context sets (a clamp end) keeps the context's value
    without_key = {k: v for k, v in base.items() if k != key or k in context}

    def run(name, values):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main([command, str(cfg)]) in ((0,) if command == "certify" else (0, 2))

    if key == "run.output_dir":
        monkeypatch.delenv("PDFP_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        run("with", with_key)
        run("without", without_key)
        chosen = _artifacts(tmp_path / value)
        assert sorted(chosen) == ["recon.pgm", "summary.txt", "trace.csv"]
        assert chosen == _artifacts(tmp_path / "out")
        return
    for name, values in (("with", with_key), ("without", without_key)):
        monkeypatch.setenv("PDFP_OUTPUT_DIR", str(tmp_path / name))
        run(name, values)
    with_files, without_files = _artifacts(tmp_path / "with"), _artifacts(tmp_path / "without")
    assert sorted(with_files) == sorted(without_files) != []
    assert with_files != without_files


# Configs each rejected with exit 1 by one validation of the CLI: the
# overrides, the command, and a text the error must name.
REJECTED_CONFIGS = {
    "unreadable": (None, "solve", "cannot read config"),
    "unparsable-value": ({"problem.size": "big"}, "solve", "problem.size: 'big'"),
    "schedule-kind": ({"schedule.kind": "warp"}, "solve", "schedule kind: warp"),
    "tv": ({"problem.tv": "total"}, "solve", "problem.tv must be"),
    "small-size": ({"problem.size": "8"}, "solve", "problem.size must be at least 16"),
    "negative-noise": ({"problem.noise": "-0.1"}, "solve", "problem.noise must be"),
    "max-iter": ({"run.max_iter": "0"}, "solve", "run.max_iter must be positive"),
    "ifp2o-size": ({"solver.name": "ifp2o", "problem.size": "33"}, "solve",
                   "problem.size <= 32"),
    "ifp2o-operator": ({"solver.name": "ifp2o", "problem.kind": "deblur"}, "solve",
                       "ifp2o supports identity data operators only"),
    "certify-sigma-auto": ({"problem.kind": "deblur"}, "certify", "solver.sigma_strong=auto"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CONFIGS))
def test_rejected_config_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys, case):
    overrides, command, named = REJECTED_CONFIGS[case]
    monkeypatch.delenv("PDFP_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)  # the unreadable config's default run.output_dir
    cfg = tmp_path / "missing.cfg"
    if overrides is not None:
        cfg = write_cfg(tmp_path / "c.cfg", **overrides)
    assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out").exists()


class TestErrors:
    @pytest.mark.parametrize("command", ["solve", "compare", "certify"])
    def test_power_iteration_failure_exits_cleanly(self, tmp_path, monkeypatch, capsys, command):
        def failing_norm(*args, **kwargs):
            raise PowerIterationError("power iteration did not converge", best_estimate=1.0)

        # the CT data operator carries no spectral hint, so assembly estimates it
        monkeypatch.setattr(pdfp.linops, "op_norm_sq", failing_norm)
        cfg = write_cfg(tmp_path / "c.cfg", **{"problem.kind": "ct", "run.max_iter": "5"})
        argv = [command, str(cfg)]
        if command == "compare":
            argv += [str(cfg), "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: power iteration did not converge\n"
        assert not (tmp_path / "out").exists()
