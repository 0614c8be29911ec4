"""Compare the numbers two revisions of pdfp compute, case by case.

    python tools/same_bits.py REV_A [REV_B]

Each revision is unpacked with ``git archive`` into a temporary directory;
the working tree stands in for a missing ``REV_B``. Both run the same fixed
list of cases, each case in its own subprocess with the tree's ``src`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1`` (BLAS sums long dot products
in an order that depends on its thread count):

* the CT matrix: ``triplets`` of ``paper_ct_geometry(64)`` and ``(256)``;
* ``pdfp2o`` on ``configs/ct_constant.cfg`` and ``pdfp2o_ds`` on
  ``configs/ct_dynamic.cfg``, 1100 iterations at seed 1, and ``pfbs_fp2o``
  on the 256x256 isotropic denoise problem (600 outer steps, inner
  ``StoppingRule(1e-4, 50)``): the final state and every ``RunTrace``
  column but ``wall_ms``;
* ``pdfp solve`` on the four shipped configs at ``--max-iter 300``: the
  exit code, ``trace.csv`` and ``summary.txt`` (both without ``wall_ms``)
  and ``recon.pgm``.

For each case and column it prints ``equal``, or ``differs`` with the
largest difference in units in the last place (ulps; plain differences for
integers). A case that one tree cannot run is reported as not comparable.
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
    """The final state's arrays and every trace field but ``wall_ms``."""
    cols = {f"state.{k}": np.asarray(getattr(state, k)) for k in ("v", "x")}
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        if f.name not in ("wall_ms", "iterates") and value is not None:
            cols[f.name] = np.asarray(value)
    return cols


def _ct_run(name):
    from pdfp import StoppingRule, pdfp2o, pdfp2o_ds
    from pdfp.cli import ExperimentConfig
    cfg = ExperimentConfig.load(f"configs/{name}.cfg", {"run.seed": 1})
    problem, x_true, _ = cfg.build_problem()
    gamma, lam = cfg.resolve_steps(problem)
    stop = StoppingRule(tol=cfg["run.tol"], max_iter=1100)
    if cfg["solver.name"] == "pdfp2o":
        return _run_columns(*pdfp2o(problem, gamma, lam, stop=stop, x_true=x_true.ravel()))
    sched = cfg.schedule_spec(gamma, lam, cfg["schedule.alpha"]).build(problem)
    return _run_columns(*pdfp2o_ds(problem, sched, stop=stop, x_true=x_true.ravel()))


def _denoise_run():
    from pdfp import StoppingRule, make_denoise_problem, pfbs_fp2o
    p, x_true = make_denoise_problem(256, 0.1, 1, 0.05, "isotropic-pair")
    return _run_columns(*pfbs_fp2o(p, 1.99 * p.beta, p.lambda_hi, 0.0, StoppingRule(1e-4, 50),
                                   stop=StoppingRule(0.0, 600), x_true=x_true.ravel()))


def _numbers(values):
    """Text fields as float64 where they parse, else the text itself."""
    try:
        return np.array([float(v) for v in values])
    except ValueError:
        return np.array(values)


def _solve(name):
    from pdfp.cli import main
    with tempfile.TemporaryDirectory() as out:
        os.environ["PDFP_OUTPUT_DIR"] = out
        cols = {"exit_code": np.asarray(main(["solve", f"configs/{name}.cfg",
                                              "--max-iter", "300"]))}
        rows = list(csv.reader((Path(out) / "trace.csv").read_text().splitlines()))
        for column in zip(*rows):
            if column[0] != "wall_ms":
                cols[f"trace.csv:{column[0]}"] = _numbers(column[1:])
        for line in (Path(out) / "summary.txt").read_text().splitlines():
            key, value = line.split("=", 1)
            if key != "wall_ms":
                cols[f"summary.txt:{key}"] = _numbers([value])
        cols["recon.pgm"] = np.frombuffer((Path(out) / "recon.pgm").read_bytes(), np.uint8)
    return cols


CASES = {
    "ct_matrix_64": lambda: _ct_matrix(64),
    "ct_matrix_256": lambda: _ct_matrix(256),
    "ct_constant_pdfp2o": lambda: _ct_run("ct_constant"),
    "ct_dynamic_pdfp2o_ds": lambda: _ct_run("ct_dynamic"),
    "denoise256_pfbs_fp2o": _denoise_run,
    **{f"solve_{name}": functools.partial(_solve, name)
       for name in ("ct_constant", "ct_dynamic", "denoise_small", "lasso_certify")},
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
        ka, kb = _ordered(a[~nan_a]), _ordered(b[~nan_b])
        diff = max((abs(int(x) - int(y)) for x, y in zip(ka, kb) if x != y), default=0)
        return f"differs by up to {diff} ulps"
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
