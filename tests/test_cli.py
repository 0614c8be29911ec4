import csv
import math
import os
from pathlib import Path

import numpy as np
import pytest

import pdfp.cli
import pdfp.linops
from pdfp import PowerIterationError, StoppingRule, chambolle_pock, constant_schedule, \
    make_denoise_problem, pdfp2o, pdfp2o_ds, pdfp2o_dsn, pdfp2o_kappa, pfbs_fp2o, \
    rate_certificate, siu, write_trace_csv
from pdfp.cli import CONFIG_KEYS, PROBLEM_KINDS, SCHEDULE_KINDS, SOLVER_NAMES, \
    ExperimentConfig, ConfigError, certify, _CERTIFY_READS, _PROBLEM_READS, _SCHEDULE_READS, \
    _SOLVER_READS, _keys_read, _run_solver, compare, main, parse_config_text, run_experiment
from pdfp.diagnostics import rel_err_snr


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

    def test_default_deblur_ends_above_its_data(self, tmp_path):
        # reg_weight = auto once gave deblur 0.02: 0.3 dB above the data's SNR here,
        # below it at 32x32 and 64x64; the weight now taken ends 8.6 dB above
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem.kind = deblur\nproblem.size = 16\n"
                       f"run.output_dir = {tmp_path / 'out'}\n")
        assert run_experiment(cfg) in (0, 2)
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        snr_db = float(dict(line.split("=", 1) for line in summary)["snr_db"])
        problem, x_true, _ = ExperimentConfig.load(cfg).build_problem()
        assert snr_db > rel_err_snr(problem.f2.b, x_true.ravel())[1] + 5.0

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

    def test_unknown_solver_exits_1_before_building_the_problem(self, tmp_path, monkeypatch,
                                                                capsys):
        monkeypatch.setattr(ExperimentConfig, "build_problem", None)
        a = write_cfg(tmp_path / "a.cfg", **{"solver.name": "ifp2o"})
        out = tmp_path / "m" / "m.csv"
        assert main(["compare", str(a), str(a), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown solver: ifp2o\n"
        assert not (tmp_path / "m").exists()

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
        cfg = write_cfg(tmp_path / "d.cfg")
        assert certify(cfg) == 1
        assert "contraction factors reach 1" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "0.5", "0.95"])
    @pytest.mark.parametrize("gamma", ["1.0", "0.5", "0.2"])
    def test_certificate_bounds_the_run_it_describes(self, tmp_path, capsys, gamma, alpha):
        # certify once took its relaxation range from keys of its own, (0.1, 0.9) by
        # default: it certified alpha 0.95 at theta 0.9, which that run breaks from
        # the first iterate, and at alpha 0.5 found gammas 0.5 and 0.2 not applicable
        cfg = write_cfg(tmp_path / "l.cfg",
                        **dict(_LASSO, **{"solver.gamma": gamma, "schedule.alpha": alpha}))
        assert certify(cfg) == 0
        printed = dict(field.split("=") for field in capsys.readouterr().out.split())
        theta, d = float(printed["theta"]), float(printed["d"])
        problem, _, _ = ExperimentConfig.load(cfg).build_problem()
        lam = problem.lambda_hi
        # at gamma = beta the lasso run is at its fixed point after one step
        x_star = pdfp2o(problem, problem.beta, lam, stop=StoppingRule(0.0, 2000))[0].x
        sched = constant_schedule(float(gamma), lam, float(alpha), problem=problem)
        _, tr = pdfp2o_dsn(problem, sched, stop=StoppingRule(0.0, 200), record_iterates=True)
        assert len(tr.iterates) == 201
        for n, u in enumerate(tr.iterates):
            assert np.linalg.norm(u.x - x_star) <= d * theta ** n / (1.0 - theta) + 1e-12

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
                "schedule.gamma_hi": "0.5",
                "solver.lambda": "0.1",
                "run.max_iter": "20",
                "run.tol": "0",
            },
        )
        assert run_experiment(cfg) == 2
        # the quotient is 1 on a denoise problem, so the clamp decides gamma
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert all(0.1 <= float(row["gamma"]) <= 0.5 for row in rows)
        assert {row["lambda"] for row in rows} == {"0.1"}

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
    "gamma-bb-ds": ({"solver.name": "pdfp2o_ds", "schedule.kind": "bb_dynamic",
                     "solver.gamma": "1.0"}, ["solver.gamma"]),
    "inner-outside-pfbs": ({"solver.name": "pdfp2o_kappa", "solver.inner_tol": "1e-3",
                            "solver.inner_max_iter": "7"},
                           ["solver.inner_tol", "solver.inner_max_iter"]),
    "clamp-outside-bb": ({"solver.name": "pdfp2o_dsn", "schedule.gamma_lo": "0.1",
                          "schedule.gamma_hi": "1.5"},
                         ["schedule.gamma_lo", "schedule.gamma_hi"]),
}


# Keys that certify never reads, on the lasso config it certifies.
CERTIFY_UNREAD_KEYS = {
    "theta-inner-decay": ({"solver.theta": "0.3", "solver.inner_max_iter": "7",
                           "schedule.decay": "2"},
                          ["solver.theta", "solver.inner_max_iter", "schedule.decay"]),
    "kappa-inner-tol": ({"solver.kappa": "0.3", "solver.inner_tol": "1e-3"},
                        ["solver.kappa", "solver.inner_tol"]),
    "schedule-kind-and-ends": ({"schedule.kind": "bb_dynamic", "schedule.gamma_lo": "0.1",
                                "schedule.gamma_hi": "1.5"},
                               ["schedule.kind", "schedule.gamma_lo", "schedule.gamma_hi"]),
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


# Problem keys that the problem kind never reads, each set away from its
# default: each once wrote the same artifacts as the config without it.
PROBLEM_UNREAD_KEYS = {
    "blur-denoise": ({"problem.blur_sigma": "3.0", "problem.blur_radius": "3"},
                     "denoise", ["problem.blur_radius", "problem.blur_sigma"]),
    "ct-keys-denoise": ({"problem.angle_step": "5", "problem.angle_count": "9",
                         "problem.rays": "7"},
                        "denoise", ["problem.angle_step", "problem.angle_count", "problem.rays"]),
    "tv-lasso": ({"problem.kind": "lasso", "problem.tv": "isotropic"}, "lasso", ["problem.tv"]),
    "blur-ct": ({"problem.kind": "ct", "problem.blur_sigma": "0.8"}, "ct",
                ["problem.blur_sigma"]),
    "ct-keys-deblur": ({"problem.kind": "deblur", "problem.rays": "15"}, "deblur",
                       ["problem.rays"]),
}
_PROBLEM_UNREAD_CASES = [(command, case) for case in sorted(PROBLEM_UNREAD_KEYS)
                         for command in ("certify", "compare", "solve")]


@pytest.mark.parametrize("command,case", _PROBLEM_UNREAD_CASES,
                         ids=["-".join(c) for c in _PROBLEM_UNREAD_CASES])
def test_problem_keys_the_kind_never_reads_are_rejected(tmp_path, monkeypatch, capsys, case,
                                                        command):
    extra, kind, unread = PROBLEM_UNREAD_KEYS[case]
    cfg = write_cfg(tmp_path / "c.cfg", **extra)
    monkeypatch.setattr(ExperimentConfig, "build_problem",
                        lambda self: pytest.fail("problem built"))
    argv = [command, str(cfg)]
    if command == "compare":
        # the same keys in both configs, so only the read check can refuse them
        argv += [str(cfg), "--out", str(tmp_path / "m.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: problem.kind {kind} never reads {', '.join(unread)}\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "m.csv").exists()


def test_every_problem_key_some_kind_reads_is_accepted(tmp_path):
    # the problem keys each kind reads, each set away from its default
    reads = {"ct": {"problem.tv": "isotropic", "problem.angle_step": "5",
                    "problem.angle_count": "9", "problem.rays": "15"},
             "denoise": {"problem.tv": "isotropic"},
             "deblur": {"problem.tv": "isotropic", "problem.blur_radius": "1",
                        "problem.blur_sigma": "0.8"},
             "lasso": {}}
    for kind, extra in reads.items():
        cfg = write_cfg(tmp_path / f"{kind}.cfg", **{"problem.kind": kind, **extra})
        assert _keys_read(ExperimentConfig.load(cfg)) is not None


# Command lines argparse refuses, and the message it prints for each.
USAGE_ERRORS = {
    "bad-int": (["solve", "CFG", "--max-iter", "x"],
                "pdfp solve: error: argument --max-iter: invalid int value: 'x'"),
    "unknown-flag": (["solve", "CFG", "--bogus"], "pdfp: error: unrecognized arguments: --bogus"),
    "no-config": (["solve"], "pdfp solve: error: the following arguments are required: config"),
    "no-command": ([], "pdfp: error: the following arguments are required: command"),
    "no-out": (["compare", "CFG", "CFG"],
               "pdfp compare: error: the following arguments are required: --out"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_1_with_argparse_message(tmp_path, capsys, case):
    # argparse's own exit code is 2, which pdfp keeps for a run whose budget ran out
    argv, message = USAGE_ERRORS[case]
    cfg = str(write_cfg(tmp_path / "c.cfg"))
    with pytest.raises(SystemExit) as exc:
        main([cfg if a == "CFG" else a for a in argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pdfp") and err.endswith(f"\n{message}\n")
    assert not (tmp_path / "out").exists()


# One row per config key: the key's non-default value and the context in
# which it acts. Each run is 16x16 with 20 iterations.
_CLAMP = {"solver.name": "pdfp2o_ds", "schedule.kind": "bb_dynamic",
          "schedule.gamma_lo": "0.01", "schedule.gamma_hi": "1.99"}
_CT = {"problem.kind": "ct"}
_DEBLUR = {"problem.kind": "deblur"}
_PFBS = {"solver.name": "pfbs_fp2o"}
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
    "schedule.kind": ("bb_dynamic", {"solver.name": "pdfp2o_ds"}),
    "schedule.alpha": ("0.3", {"solver.name": "pdfp2o_dsn"}),
    "schedule.decay": ("0.5", {"solver.name": "pdfp2o_ds",
                               "schedule.kind": "convergent_perturbation"}),
    # the two clamp ends are set together, so each is compared with the
    # context's value rather than with auto
    "schedule.gamma_lo": ("1.5", _CLAMP),
    "schedule.gamma_hi": ("0.5", _CLAMP),
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
    base = dict({"problem.size": "16", "run.max_iter": "20"}, **context)
    with_key = dict(base, **{key: value})
    # a key the context sets (a clamp end) keeps the context's value
    without_key = {k: v for k, v in base.items() if k != key or k in context}

    def run(name, values):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main(["solve", str(cfg)]) in (0, 2)

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
    # once numpy's "need at least one array to concatenate"
    "no-angles": ({"problem.kind": "ct", "problem.angle_count": "0"}, "solve",
                  "angles_deg must hold at least one angle"),
    # ifp2o is a library call: on identity data at Q = I it is pdfp2o_kappa at
    # solver.gamma = 1
    "ifp2o": ({"solver.name": "ifp2o"}, "solve", "unknown solver: ifp2o"),
    "ifp2o-certify": ({"solver.name": "ifp2o"}, "certify", "unknown solver: ifp2o"),
    "certify-sigma-auto": ({"problem.kind": "deblur"}, "certify",
                           "certify needs an identity data operator"),
    # once numpy's "expected non-negative integer", which names no key
    "negative-seed": ({"run.seed": "-1"}, "solve", "run.seed must be a nonnegative integer"),
    # the relaxation range certify once read in place of the run's own
    "alpha-clamp-order": (dict(_LASSO, **{"schedule.alpha_lo": "0.7",
                                          "schedule.alpha_hi": "0.3"}), "certify",
                          "unknown config key: schedule.alpha_lo"),
    # keys only certify once read; each made it certify a run other than the configured one
    **{f"certify-only-{key}": (dict(_LASSO, **{key: "0.5"}), "certify",
                               f"unknown config key: {key}")
       for key in ("solver.sigma_strong", "schedule.alpha_lo", "schedule.alpha_hi")},
    # a lambda clamp end, which once clipped solver.lambda under bb_dynamic
    "lambda-clamp-key": ({"schedule.lambda_lo": "0.01"}, "solve",
                         "unknown config key: schedule.lambda_lo"),
    # once an OverflowError traceback, an unnamed NaN error, numpy's "Maximum
    # allowed size exceeded", and a silent run with 2 rays
    **{f"rays-{value}": ({"problem.kind": "ct", "problem.rays": value}, "solve",
                         f"bad value for problem.rays: {value!r}")
       for value in ("inf", "nan", "1e300", "2.5")},
    # once run at alpha 0.5 in place of the value given
    **{f"dsn-bb-alpha-{value}": ({"solver.name": "pdfp2o_dsn", "schedule.kind": "bb_dynamic",
                                 "schedule.alpha": value}, "solve", f"alpha={value} out of range")
       for value in ("nan", "-0.3")},
    # once a certificate with d=nan, or one for a first step outside [0, 1)
    **{f"certify-alpha-{value}": (dict(_LASSO, **{"schedule.alpha": value}), "certify",
                                  f"alpha={value} out of range")
       for value in ("nan", "-0.3", "1.5")},
    # once named alpha, a key the config never set
    **{f"{solver}-kappa-{value}": ({"solver.name": solver, "solver.kappa": value}, "solve",
                                   f"kappa={value} out of range")
       for solver in ("pdfp2o_kappa", "pfbs_fp2o") for value in ("1.5", "nan")},
}


def test_negative_seed_flag_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg")
    assert main(["solve", str(cfg), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: run.seed must be a nonnegative integer\n"
    assert not (tmp_path / "out").exists()


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


# Step values a config sets, each run as written or refused by name: the
# overrides, the command, and what the run must give. That is a text the
# error names, the trace.csv of the base config with other overrides, the
# certificate of the relaxation weight alpha on every step (None: auto's 0.5),
# the dual step sigma = lambda / gamma of cp, or the value of a trace.csv
# column on every row. On the 16x16 denoise problem 1/lambda_max(DD^T) is
# 0.12621. Each once ran at another value: alpha 0 at 0.5 (solve) or at
# 0.1 (certify), a cp lambda at 0.99/lambda_max, an
# inadmissible bb_dynamic lambda at 1/lambda_max, and a bb_dynamic alpha
# outside [0.1, 0.9] or lambda below 1e-6/lambda_max clipped into that range.
_BB = {"schedule.kind": "bb_dynamic"}
_CERTIFY = {"problem.kind": "lasso", "solver.gamma": "1.0"}
STEP_VALUES = {
    # the relaxed iteration at alpha = 0 is the unrelaxed one, bit for bit
    "dsn-alpha-0": ({"solver.name": "pdfp2o_dsn", "schedule.alpha": "0"}, "solve",
                    ("trace", {"solver.name": "pdfp2o_ds"})),
    "dsn-bb-alpha-0": (dict(_BB, **{"solver.name": "pdfp2o_dsn", "schedule.alpha": "0"}),
                       "solve", ("trace", dict(_BB, **{"solver.name": "pdfp2o_ds"}))),
    "dsn-bb-alpha-0.95": (dict(_BB, **{"solver.name": "pdfp2o_dsn", "schedule.alpha": "0.95"}),
                          "solve", ("alpha", 0.95)),
    "bb-lambda-1e-9": (dict(_BB, **{"solver.name": "pdfp2o_ds", "solver.lambda": "1e-9"}),
                       "solve", ("lambda", 1e-9)),
    "certify-alpha-0": (dict(_CERTIFY, **{"schedule.alpha": "0"}), "certify", ("d", 0.0)),
    "certify-alpha-auto": (_CERTIFY, "certify", ("d", None)),
    "cp-lambda-inside-the-bound": ({"solver.name": "cp", "solver.lambda": "0.1255"}, "solve",
                                   ("sigma", 0.1255)),
    "cp-lambda-above-the-bound": ({"solver.name": "cp", "solver.lambda": "0.2"}, "solve",
                                  "sigma*tau < 0.1262"),
    "cp-lambda-40-times-the-bound": ({"solver.name": "cp", "solver.lambda": "5.0"}, "solve",
                                     "sigma*tau < 0.1262"),
    "bb-lambda-above-the-bound": ({"solver.name": "pdfp2o_ds", "schedule.kind": "bb_dynamic",
                                   "solver.lambda": "0.2"}, "solve",
                                  "lambda=0.2 out of range (0, 0.1262"),
}


@pytest.mark.parametrize("case", sorted(STEP_VALUES))
def test_step_value_runs_as_written_or_exits_1(tmp_path, monkeypatch, capsys, case):
    overrides, command, want = STEP_VALUES[case]
    cfg = write_cfg(tmp_path / "c.cfg", **overrides)
    monkeypatch.setenv("PDFP_OUTPUT_DIR", str(tmp_path / "out"))
    code = main([command, str(cfg)])
    printed = capsys.readouterr()
    if isinstance(want, str):
        assert code == 1 and printed.err.startswith("error: ") and want in printed.err
        assert not (tmp_path / "out").exists()
        return
    assert code in (0, 2), printed.err
    what, value = want
    loaded = ExperimentConfig.load(cfg)
    problem, _, _ = loaded.build_problem()
    gamma, lam = loaded.resolve_steps(problem)
    if what == "trace":
        monkeypatch.setenv("PDFP_OUTPUT_DIR", str(tmp_path / "ref"))
        assert main(["solve", str(write_cfg(tmp_path / "ref.cfg", **value))]) == code
        assert (read_trace_without_wall(tmp_path / "out" / "trace.csv")
                == read_trace_without_wall(tmp_path / "ref" / "trace.csv"))
    elif what == "d":
        alpha = 0.5 if value is None else value
        cert = rate_certificate(problem, gamma, lam, alpha, alpha, 1.0, alpha0=alpha)
        assert f" d={cert.d!r}\n" in printed.out
    else:
        if what == "sigma":  # cp's lambda column holds sigma
            assert 0.99 * problem.lambda_hi < value < problem.lambda_hi
            what, value = "lambda", value / gamma
        rows = read_trace_without_wall(tmp_path / "out" / "trace.csv")
        assert {row[rows[0].index(what)] for row in rows[1:]} == {repr(value)}


# Output paths that cannot be made because a file stands in the way: the
# command, the config keys it runs, the path under the file, and where the
# path is given (run.output_dir, PDFP_OUTPUT_DIR or --out). Each once ran
# the whole solve or certificate, then raised FileExistsError as a traceback.
BLOCKED_OUTPUTS = {
    "solve-dir-is-a-file": ("solve", {}, "", "run.output_dir"),
    "solve-parent-is-a-file": ("solve", {}, "sub", "run.output_dir"),
    "solve-env-parent-is-a-file": ("solve", {}, "sub", "PDFP_OUTPUT_DIR"),
    "compare-parent-is-a-file": ("compare", {}, "m.csv", "--out"),
    "certify-parent-is-a-file": ("certify", _LASSO, "sub", "run.output_dir"),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_OUTPUTS))
def test_blocked_output_path_exits_1_before_building(tmp_path, monkeypatch, capsys, case):
    command, extra, below, given_as = BLOCKED_OUTPUTS[case]
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / below if below else blocker
    monkeypatch.delenv("PDFP_OUTPUT_DIR", raising=False)
    if given_as == "PDFP_OUTPUT_DIR":
        monkeypatch.setenv(given_as, str(target))
    elif given_as == "run.output_dir":
        extra = dict(extra, **{given_as: str(target)})
    cfg = write_cfg(tmp_path / "c.cfg", **extra)
    monkeypatch.setattr(ExperimentConfig, "build_problem",
                        lambda self: pytest.fail("problem built"))
    argv = [command, str(cfg)]
    if command == "compare":
        argv += [str(cfg), "--out", str(target)]
        target = blocker
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: output directory {target} cannot be made: "
                                       f"{blocker} is not a directory\n")
    assert blocker.read_text() == ""


# Artifacts in whose place a directory stands: the command, its config keys
# and the artifact. Each once ran the whole solve or certificate, then raised
# IsADirectoryError as a traceback; solve had replaced trace.csv by then.
DIRECTORY_ARTIFACTS = {
    "solve-recon": ("solve", {}, "recon.pgm"),
    "compare-out": ("compare", {}, "m.csv"),
    "certify-certificate": ("certify", _LASSO, "certificate.csv"),
}


@pytest.mark.parametrize("case", sorted(DIRECTORY_ARTIFACTS))
def test_directory_in_place_of_an_artifact_exits_1_before_building(tmp_path, monkeypatch,
                                                                   capsys, case):
    command, extra, artifact = DIRECTORY_ARTIFACTS[case]
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    (out / "trace.csv").write_text("earlier\n")
    monkeypatch.setenv("PDFP_OUTPUT_DIR", str(out))
    cfg = write_cfg(tmp_path / "c.cfg", **extra)
    monkeypatch.setattr(ExperimentConfig, "build_problem",
                        lambda self: pytest.fail("problem built"))
    argv = [command, str(cfg)]
    if command == "compare":
        argv += [str(cfg), "--out", str(out / artifact)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {out / artifact}: it is a directory\n"
    assert sorted(p.name for p in out.iterdir()) == sorted([artifact, "trace.csv"])
    assert (out / "trace.csv").read_text() == "earlier\n" and not any((out / artifact).iterdir())


def _keys_read_by(monkeypatch, run):
    """The config keys ``run()`` reads through ``ExperimentConfig.__getitem__``."""
    read = set()

    def getitem(cfg, key):
        read.add(key)
        return dict.__getitem__(cfg, key)

    with monkeypatch.context() as m:
        m.setattr(ExperimentConfig, "__getitem__", getitem)
        run()
    return read


def test_problem_table_names_the_keys_each_kind_reads(tmp_path, monkeypatch):
    # the read check accepts every key the table declares and refuses the
    # rest, so the two must agree with what build_problem reads
    for kind in PROBLEM_KINDS:
        cfg = ExperimentConfig.load(write_cfg(tmp_path / "c.cfg", **{"problem.kind": kind}))
        read = _keys_read_by(monkeypatch, cfg.build_problem)
        assert {k for k in read if k.startswith("problem.")} == {
            "problem.kind", "problem.size", "problem.noise", "problem.reg_weight",
            *_PROBLEM_READS[kind]}, kind


# Each solver, under each schedule kind when it reads schedule.kind.
_DISPATCH_CASES = [(name, kind) for name in SOLVER_NAMES
                   for kind in (SCHEDULE_KINDS if "schedule.kind" in _SOLVER_READS[name]
                                else (None,))]


@pytest.mark.parametrize("name,kind", _DISPATCH_CASES,
                         ids=[f"{n}-{k}" if k else n for n, k in _DISPATCH_CASES])
def test_dispatch_reads_every_key_its_table_declares(tmp_path, monkeypatch, name, kind):
    # the read check accepts every declared key, so one the dispatch never
    # reads would be accepted and then do nothing
    overrides = {"solver.name": name, "run.max_iter": "1"}
    if kind is not None:
        overrides["schedule.kind"] = kind
    cfg = ExperimentConfig.load(write_cfg(tmp_path / "c.cfg", **overrides))
    problem, x_true, _ = cfg.build_problem()
    read = _keys_read_by(monkeypatch, lambda: _run_solver(cfg, problem, x_true))
    declared = {"solver.name", *_SOLVER_READS[name], *_SCHEDULE_READS.get(kind, ())}
    assert declared - read == set()


def test_certify_reads_every_key_its_table_declares(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "c.cfg", **_LASSO)
    monkeypatch.setenv("PDFP_OUTPUT_DIR", str(tmp_path / "out"))
    # certify's body only: the read check itself looks at every key
    monkeypatch.setattr(pdfp.cli, "_keys_read", lambda cfg, for_certify: cfg)
    codes = []
    read = _keys_read_by(monkeypatch, lambda: codes.append(certify(cfg)))
    assert codes == [0]
    assert set(_CERTIFY_READS) - read == set()


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
