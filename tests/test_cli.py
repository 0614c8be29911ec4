import csv
import math
import os
from pathlib import Path

import pytest

import pdfp.prox
from pdfp import PowerIterationError
from pdfp.cli import ExperimentConfig, ConfigError, certify, compare, main, \
    parse_config_text, run_experiment


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
    def test_nan_data_exits_diverged(self, tmp_path, solver):
        cfg = write_cfg(tmp_path / "c.cfg", **{"problem.noise": "nan", "solver.name": solver,
                                               "run.max_iter": "500", "run.tol": "0"})
        assert run_experiment(cfg) == 3
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "stop_reason=diverged" in summary
        assert "iterations=1\n" in summary
        assert (tmp_path / "out" / "recon.pgm").exists()

    def test_malformed_config_writes_nothing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem.kind = warp\n" + f"run.output_dir = {tmp_path / 'out'}\n")
        assert run_experiment(cfg) == 1
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

    def test_tv_problem_not_certifiable(self, tmp_path):
        # the stacked difference operator is rank deficient, so the
        # strong-convexity route does not apply
        cfg = write_cfg(tmp_path / "d.cfg", **{"solver.sigma_strong": "1.0"})
        assert certify(cfg) == 1


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


class TestErrors:
    @pytest.mark.parametrize("command", ["solve", "compare", "certify"])
    def test_power_iteration_failure_exits_cleanly(self, tmp_path, monkeypatch, capsys, command):
        def failing_norm(*args, **kwargs):
            raise PowerIterationError("power iteration did not converge", best_estimate=1.0)

        # the CT data operator carries no spectral hint, so assembly estimates it
        monkeypatch.setattr(pdfp.prox, "op_norm_sq", failing_norm)
        cfg = write_cfg(tmp_path / "c.cfg", **{"problem.kind": "ct", "run.max_iter": "5"})
        argv = [command, str(cfg)]
        if command == "compare":
            argv += [str(cfg), "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: power iteration did not converge\n"
        assert not (tmp_path / "out").exists()
