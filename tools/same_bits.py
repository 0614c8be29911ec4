"""Compare the numbers two revisions of pdfp compute, case by case.

    python tools/same_bits.py REV_A [REV_B]

Each revision is unpacked with ``git archive`` into a temporary directory;
the working tree stands in for a missing ``REV_B``. Both run the same fixed
list of cases, each case in its own subprocess with the tree's ``src`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``. A tree whose vector
reductions all go through ``linops.dot`` and ``linops.norm`` gives the same
bits at any thread count; the fixed count lets older revisions compare too,
whose long BLAS dot products added in an order set by the thread count. The
cases:

* the CT matrix: ``triplets`` of ``paper_ct_geometry(64)`` and ``(256)``;
* ``pdfp2o`` on ``configs/ct_constant.cfg`` and ``pdfp2o_ds`` on
  ``configs/ct_dynamic.cfg``, 1100 iterations at seed 1, the relaxed
  ``pdfp2o_dsn`` (``bb_dynamic``, ``alpha`` 0.5) on ``ct_dynamic.cfg``'s
  problem, 300 iterations at seed 1, ``pfbs_fp2o`` on the 256x256
  isotropic denoise problem (600 outer steps, inner
  ``StoppingRule(1e-4, 50)``), a cold-started, relaxed (``kappa`` 0.3)
  ``pfbs_fp2o`` on the 64x64 one (100 outer steps), and ``ifp2o`` at
  ``Q = I`` (``kappa`` 0.3, ``lam`` the problem's ``lambda_hi``) on the
  32x32 denoise problem of the ``solve`` cases below, 200 steps at
  ``tol`` 0 and at ``tol`` 3e-3, which stops it at step 109, so the stop
  test decides the run's length: the final state (``x`` alone for
  ``ifp2o``) and every ``RunTrace`` column but ``wall_ms``;
* ``pdfp solve`` on the four shipped configs at ``--max-iter 300``, and on
  configs the case writes into its temporary directory: ``cp`` on a 32x32
  deblur (its resolvent is a conjugate gradient), ``siu``,
  ``pdfp2o_kappa``, ``pdfp2o_dsn`` with ``bb_dynamic`` on that deblur and
  with ``convergent_perturbation``, a relaxed ``pfbs_fp2o``, and
  ``pdfp2o_kappa`` (``kappa`` auto, 0.5) at ``run.tol = 3e-3``, which
  stops it at iteration 93: the exit code, ``trace.csv`` and
  ``summary.txt`` (both without ``wall_ms``) and ``recon.pgm``;
* ``pdfp certify`` on the keys of ``configs/lasso_certify.cfg``, and on them
  with ``schedule.alpha`` left at ``auto``, with ``schedule.alpha = 0`` and
  with ``solver.gamma = 0.5``, likewise written into the case's directory:
  the exit code and ``certificate.csv``;
* ``pdfp compare`` of ``pdfp2o_kappa`` at ``solver.gamma = 1`` against
  ``pdfp2o`` on a 32x32 denoise problem (``reg_weight`` 0.02, 300
  iterations), with ``--out`` inside the case's output directory: the exit
  code and the merged CSV.

For each case and column it prints ``equal``, or ``differs`` with the
largest difference in units in the last place (ulps; plain differences for
integers). A float column's difference is also given in ulps of the
column's largest finite magnitude in ``a``, ``max|a - b| / spacing(max|a|)``:
a change of 1e-15 on an entry near zero is millions of that entry's own
ulps, and a fraction of one at the column's scale. A case that one tree cannot run is reported as not comparable.
Only public names of ``pdfp`` are used, so any two revisions that have them
compare. Exits 0 when every column of every case is equal, else 1.
"""

import argparse
import csv
import dataclasses
import functools
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


# ---- the cases, run inside a tree ------------------------------------------

def _ct_matrix(n):
    from pdfp import build_projection_matrix, paper_ct_geometry
    i, j, v = build_projection_matrix(paper_ct_geometry(n)).triplets
    return {"i": i, "j": j, "v": v}


def _run_columns(state, trace):
    """The final state's arrays (``x`` alone for an array) and every trace field
    but ``wall_ms``."""
    cols = ({"state.x": state} if isinstance(state, np.ndarray) else
            {f"state.{k}": np.asarray(getattr(state, k)) for k in ("v", "x")})
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        if f.name not in ("wall_ms", "iterates") and value is not None:
            cols[f.name] = np.asarray(value)
    return cols


def _ct_run(name, iters=1100, overrides=None):
    """``configs/NAME.cfg`` at seed 1 with ``overrides``, ``iters`` iterations."""
    from pdfp import StoppingRule, pdfp2o, pdfp2o_ds, pdfp2o_dsn
    from pdfp.cli import ExperimentConfig
    cfg = ExperimentConfig.load(f"configs/{name}.cfg", {"run.seed": 1, **(overrides or {})})
    problem, x_true, _ = cfg.build_problem()
    gamma, lam = cfg.resolve_steps(problem)
    stop = StoppingRule(tol=cfg["run.tol"], max_iter=iters)
    if cfg["solver.name"] == "pdfp2o":
        return _run_columns(*pdfp2o(problem, gamma, lam, stop=stop, x_true=x_true.ravel()))
    sched = cfg.schedule_spec(gamma, lam, cfg["schedule.alpha"]).build(problem)
    solver = pdfp2o_dsn if cfg["solver.name"] == "pdfp2o_dsn" else pdfp2o_ds
    return _run_columns(*solver(problem, sched, stop=stop, x_true=x_true.ravel()))


def _denoise_run():
    from pdfp import StoppingRule, make_denoise_problem, pfbs_fp2o
    p, x_true = make_denoise_problem(256, 0.1, 1, 0.05, "isotropic-pair")
    return _run_columns(*pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, 0.0, StoppingRule(1e-4, 50),
                                   stop=StoppingRule(0.0, 600), x_true=x_true.ravel()))


def _cold_pfbs_run():
    from pdfp import StoppingRule, make_denoise_problem, pfbs_fp2o
    p, x_true = make_denoise_problem(64, 0.1, 1, 0.05, "isotropic-pair")
    return _run_columns(*pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, 0.3, StoppingRule(1e-4, 20),
                                   stop=StoppingRule(0.0, 100), x_true=x_true.ravel(),
                                   warm_start=False))


def _ifp2o_run(tol):
    """``ifp2o`` at ``Q = I`` on the problem of the ``_SMALL`` solve cases."""
    from pdfp import StoppingRule, ifp2o, make_denoise_problem
    p, x_true = make_denoise_problem(32, 0.05, 2, 0.1)
    return _run_columns(*ifp2o(np.eye(1024), p.f2.b, p.f1, p.D, p.lambda_hi, 0.3,
                               stop=StoppingRule(tol, 200), x_true=x_true.ravel()))


def _numbers(values):
    """Text fields as float64 where they parse, else the text itself."""
    try:
        return np.array([float(v) for v in values])
    except ValueError:
        return np.array(values)


def _cli(command, *configs, flags=()):
    """``pdfp COMMAND`` on each of ``configs``, a name in ``configs/`` or keys
    written into a temporary directory (``compare`` writes ``--out`` into the
    output directory): the exit code and every artifact."""
    from pdfp.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        out, paths = Path(tmp) / "out", []
        for i, config in enumerate(configs):
            path = Path(tmp) / f"c{i}.cfg"
            if isinstance(config, dict):
                path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            else:
                path = f"configs/{config}.cfg"
            paths.append(str(path))
        if command == "compare":
            flags = ("--out", str(out / "merged.csv"), *flags)
        os.environ["PDFP_OUTPUT_DIR"] = str(out)
        cols = {"exit_code": np.asarray(main([command, *paths, *flags]))}
        # a command that exits 1 writes nothing, so its case has the exit code alone
        for artifact in sorted(out.iterdir()) if out.exists() else ():
            if artifact.suffix == ".pgm":
                cols[artifact.name] = np.frombuffer(artifact.read_bytes(), np.uint8)
                continue
            lines = artifact.read_text().splitlines()
            if artifact.suffix == ".csv":  # a column per CSV column
                named = [(c[0], c[1:]) for c in zip(*csv.reader(lines))]
            else:  # a column per summary line
                named = [(k, [v]) for k, v in (line.split("=", 1) for line in lines)]
            cols.update((f"{artifact.name}:{k}", _numbers(v)) for k, v in named if k != "wall_ms")
    return cols


# pdfp solve on a 32x32 problem, 200 iterations at seed 2
_SMALL = {"problem.size": 32, "problem.noise": 0.05, "run.max_iter": 200, "run.tol": 0.0,
          "run.seed": 2}
_DEBLUR = dict(_SMALL, **{"problem.kind": "deblur"})
_LASSO_CERTIFY = {"problem.kind": "lasso", "problem.size": 16, "problem.noise": 0.05,
                  "problem.reg_weight": 0.05, "solver.name": "pdfp2o_dsn", "solver.gamma": 1.0,
                  "schedule.alpha": 0.5, "run.seed": 3}
_CERTIFY_CASES = {
    "lasso": _LASSO_CERTIFY,
    "lasso_alpha_auto": {k: v for k, v in _LASSO_CERTIFY.items() if k != "schedule.alpha"},
    "lasso_alpha_0": dict(_LASSO_CERTIFY, **{"schedule.alpha": 0}),
    "lasso_gamma_0.5": dict(_LASSO_CERTIFY, **{"solver.gamma": 0.5}),
}
_COMPARE = {"problem.size": 32, "problem.noise": 0.05, "problem.reg_weight": 0.02,
            "run.max_iter": 300, "run.tol": 0.0}
_SOLVE_CASES = {
    "cp_deblur32": dict(_DEBLUR, **{"solver.name": "cp", "solver.theta": 0.8}),
    "siu": dict(_SMALL, **{"solver.name": "siu"}),
    "pdfp2o_kappa": dict(_SMALL, **{"solver.name": "pdfp2o_kappa"}),
    "pdfp2o_kappa_tol": dict(_SMALL, **{"solver.name": "pdfp2o_kappa", "run.tol": 3e-3}),
    "pdfp2o_dsn_bb_deblur32": dict(_DEBLUR, **{"solver.name": "pdfp2o_dsn",
                                               "schedule.kind": "bb_dynamic",
                                               "schedule.alpha": 0.3}),
    "pdfp2o_dsn_perturbation": dict(_SMALL, **{"solver.name": "pdfp2o_dsn",
                                               "schedule.kind": "convergent_perturbation",
                                               "schedule.alpha": 0.3, "schedule.decay": 0.5}),
    "pfbs_fp2o_kappa": dict(_SMALL, **{"solver.name": "pfbs_fp2o", "problem.tv": "isotropic",
                                       "solver.kappa": 0.4, "solver.inner_tol": 1e-4,
                                       "solver.inner_max_iter": 20, "run.max_iter": 60}),
}


CASES = {
    "ct_matrix_64": lambda: _ct_matrix(64),
    "ct_matrix_256": lambda: _ct_matrix(256),
    "ct_constant_pdfp2o": lambda: _ct_run("ct_constant"),
    "ct_dynamic_pdfp2o_ds": lambda: _ct_run("ct_dynamic"),
    "ct_dynamic_pdfp2o_dsn": lambda: _ct_run("ct_dynamic", 300, {"solver.name": "pdfp2o_dsn",
                                                                 "schedule.alpha": 0.5}),
    "denoise256_pfbs_fp2o": _denoise_run,
    "denoise64_pfbs_fp2o_cold": _cold_pfbs_run,
    "ifp2o_denoise32": lambda: _ifp2o_run(0.0),
    "ifp2o_denoise32_tol": lambda: _ifp2o_run(3e-3),
    **{f"solve_{name}": functools.partial(_cli, "solve", name, flags=("--max-iter", "300"))
       for name in ("ct_constant", "ct_dynamic", "denoise_small", "lasso_certify")},
    **{f"solve_{name}": functools.partial(_cli, "solve", keys)
       for name, keys in _SOLVE_CASES.items()},
    **{f"certify_{name}": functools.partial(_cli, "certify", keys)
       for name, keys in _CERTIFY_CASES.items()},
    "compare_pdfp2o_kappa_pdfp2o": functools.partial(
        _cli, "compare", dict(_COMPARE, **{"solver.name": "pdfp2o_kappa", "solver.gamma": 1.0}),
        dict(_COMPARE, **{"solver.name": "pdfp2o"})),
}


# ---- the comparison, run from the caller -----------------------------------

def _ordered(a):
    """float64 bits as int64 keys in the order of the values, so that key
    differences count ulps (+0 and -0 share the key 0)."""
    k = a.view(np.int64).copy()
    k[k < 0] = np.int64(-2 ** 63) - k[k < 0]
    return k


def verdict(a, b):
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"differs: {a.dtype}{list(a.shape)} against {b.dtype}{list(b.shape)}"
    if a.tobytes() == b.tobytes():
        return "equal"
    if a.dtype == np.float64:
        nan_a, nan_b = np.isnan(a), np.isnan(b)
        if (nan_a != nan_b).any():
            return f"differs: NaN at {int((nan_a != nan_b).sum())} places in one tree only"
        a, b = a[~nan_a], b[~nan_b]
        ka, kb = _ordered(a), _ordered(b)
        diff = max((abs(int(x) - int(y)) for x, y in zip(ka, kb) if x != y), default=0)
        # the same difference in ulps of the column's largest finite magnitude
        finite = np.abs(a[np.isfinite(a)])
        amax = finite.max() if finite.size else 0.0
        largest = np.max(np.abs(np.subtract(a, b, where=a != b, out=np.zeros_like(a))))
        return (f"differs by up to {diff} ulps, "
                f"{largest / np.spacing(amax):.3g} ulps of max|a| = {amax:.6g}")
    if a.dtype.kind in "iub":
        return f"differs by up to {int(np.abs(a.astype(np.int64) - b.astype(np.int64)).max())}"
    return f"differs: {a.ravel()[:3]} against {b.ravel()[:3]}"


def _git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(repo, rev, dest):
    """Extract revision ``rev`` of ``repo`` into ``dest``."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
    tar = dest.with_suffix(".tar")
    _git("archive", "--output", str(tar), commit, cwd=repo)
    dest.mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)
    tar.unlink()
    return commit[:12]


def run_side(tree, case, out):
    """Run ``case`` in ``tree``; its columns, or the reason it could not run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--case", case,
                           "--out", str(out)], cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return lines[-1]
    with np.load(out) as data:
        return {k: data[k] for k in data.files}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", nargs="?")
    parser.add_argument("rev_b", nargs="?")
    parser.add_argument("--case", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        import pdfp
        if not Path(pdfp.__file__).resolve().is_relative_to(Path.cwd().resolve()):
            raise RuntimeError(f"imported pdfp from {pdfp.__file__}, outside the tree")
        np.savez(args.out, **CASES[args.case]())
        return 0
    if args.rev_a is None:
        parser.error("REV_A is required")
    t0 = time.perf_counter()
    repo = Path(_git("rev-parse", "--show-toplevel", cwd=Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees, names = [], []
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            if rev is None:
                trees.append(repo)
                names.append("working tree")
            else:
                trees.append(tmp / side)
                names.append(f"{rev} ({unpack(repo, rev, tmp / side)})")
        print(f"a = {names[0]}\nb = {names[1]}")
        bad = columns = 0
        for case in CASES:
            got = [run_side(tree, case, tmp / f"{case}_{side}.npz")
                   for tree, side in zip(trees, "ab")]
            failed = [f"{side}: {g}" for side, g in zip("ab", got) if isinstance(g, str)]
            if failed:
                bad += 1
                print(f"{case}: not comparable ({'; '.join(failed)})")
                continue
            for col in sorted(set(got[0]) | set(got[1])):
                if col not in got[0] or col not in got[1]:
                    out = f"not comparable (only in {'a' if col in got[0] else 'b'})"
                else:
                    out = verdict(got[0][col], got[1][col])
                bad, columns = bad + (out != "equal"), columns + 1
                print(f"{case} {col}: {out}")
    print(f"{len(CASES)} cases, {columns} columns: {bad} not equal or not comparable, "
          f"{time.perf_counter() - t0:.0f} s")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
