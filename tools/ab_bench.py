"""Time two revisions of pdfp against each other in alternating pairs.

    python tools/ab_bench.py REV_A [REV_B] --workload W [--workload W2 ...] \\
        --pairs N --seed0 S --seconds T --label L

Each revision is unpacked with ``git archive`` (``same_bits.unpack``) into a
temporary directory; the working tree stands in for a missing ``REV_B``.
Pair ``k`` runs ``perfbench/run.py --workload W --seed S+k --seconds T
--trace 0`` once in each tree, one process per run, ``a`` first on even
``k`` and ``b`` first on odd ``k``. Every run has ``OPENBLAS_NUM_THREADS``
fixed at the number of cores this process may use, the value
``perfbench/run.py`` picks when the variable is unset, and the file records
it. Workloads run one after another.

It writes ``BENCH_<L>.json`` at the root of the repository: the two
revisions, their commits and ``src`` trees, the settings and versions, each
run's end-to-end metrics, and per workload and metric of ``BENCHMARK.json``
a summary of the pairs in which both sides report the metric:

* ``a_median``, ``b_median``, ``a_q1_q3``, ``b_q1_q3`` (quartiles by linear
  interpolation, as ``numpy.percentile``) and ``a_iqr``;
* ``b_wins``, ``ties`` and ``pairs``: pairs in which ``b`` is better in the
  metric's direction, equal, and compared;
* ``b_vs_a_pct``, the change of the median, and ``bound``, the relative
  bound from ``BENCHMARK.json``;
* ``verdict``: ``gain`` when ``b`` wins at least nine tenths of the pairs
  and its median is better by more than ``a_iqr``; ``worse beyond bound``
  when its median is worse by more than ``bound`` of ``a_median``;
  ``unresolved`` when ``a_iqr`` itself exceeds that bound, unless every run
  of ``b`` is better than every run of ``a``; ``within bound`` otherwise.

It reports only: it exits 0 once the file is written, and 1 when a run gave
no result (its stderr's last line is printed and recorded).
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "same_bits", Path(__file__).resolve().parent / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)


def run_once(tree, workload, seed, seconds, threads):
    """One ``perfbench/run.py --trace 0`` process in ``tree``: its last JSON line,
    or ``{"error": ...}`` with the reason it gave none."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is None:
        tail = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return {"error": tail[-1]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def summarize(runs_a, runs_b, end_to_end):
    """Per metric of ``end_to_end`` (``BENCHMARK.json``'s list), the summary of the
    pairs ``zip(runs_a, runs_b)`` in which both runs report it."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        pairs = [(ra["metrics"][name], rb["metrics"][name]) for ra, rb in zip(runs_a, runs_b)
                 if ra.get("metrics", {}).get(name) is not None
                 and rb.get("metrics", {}).get(name) is not None]
        if not pairs:
            out[name] = {"pairs": 0, "verdict": "no pairs"}
            continue
        a, b = np.array(pairs).T
        a_q, b_q = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        a_iqr = float(a_q[2] - a_q[0])
        gain = sign * (a_q[1] - b_q[1])  # > 0 when b's median is better
        wins, ties = int((sign * (a - b) > 0).sum()), int((a == b).sum())
        slack = spec["bound"] * abs(a_q[1])
        if wins >= 0.9 * len(pairs) and gain > a_iqr:
            verdict = "gain"
        elif -gain > slack:
            verdict = "worse beyond bound"
        elif a_iqr > slack and (sign * b).max() >= (sign * a).min():
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "a_median": float(a_q[1]), "b_median": float(b_q[1]),
            "a_q1_q3": [float(a_q[0]), float(a_q[2])], "b_q1_q3": [float(b_q[0]), float(b_q[2])],
            "a_iqr": a_iqr, "b_wins": wins, "ties": ties, "pairs": len(pairs),
            "b_vs_a_pct": float(100.0 * (b_q[1] - a_q[1]) / a_q[1]) if a_q[1] else None,
            "bound": spec["bound"], "verdict": verdict,
        }
    return out


def src_tree(repo, commit):
    """The git tree hash of ``src`` at ``commit``, or in the working tree for ``None``."""
    if commit is not None:
        return same_bits._git("rev-parse", f"{commit}:src", cwd=repo)
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git = lambda *args: subprocess.run(["git", *args], cwd=repo, env=env, check=True,
                                           capture_output=True, text=True).stdout.strip()
        git("add", "src")
        return git("write-tree", "--prefix=src/")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b", nargs="?")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed0 < 0:
        parser.error("--pairs must be positive and --seed0 nonnegative")
    threads = len(os.sched_getaffinity(0))
    repo = Path(same_bits._git("rev-parse", "--show-toplevel", cwd=Path(__file__).parent))
    end_to_end = json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = list(range(args.seed0, args.seed0 + args.pairs))
    first = ["a" if k % 2 == 0 else "b" for k in range(args.pairs)]
    import scipy
    report = {
        "label": args.label, "command": " ".join(["tools/ab_bench.py", *(argv or sys.argv[1:])]),
        "seconds": args.seconds, "OPENBLAS_NUM_THREADS": threads, "nproc": threads,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "workloads": {},
    }
    missing = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            if rev is None:
                trees[side] = repo
                report[side] = {"rev": None, "commit": "working tree on " + same_bits._git(
                    "rev-parse", "HEAD", cwd=repo), "src_tree": src_tree(repo, None)}
            else:
                trees[side] = Path(tmp) / side
                commit = same_bits._git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
                same_bits.unpack(repo, commit, trees[side])
                report[side] = {"rev": rev, "commit": commit, "src_tree": src_tree(repo, commit)}
        for workload in args.workload:
            runs = {"a": [], "b": []}
            for seed, lead in zip(seeds, first):
                for side in (lead, "b" if lead == "a" else "a"):
                    run = run_once(trees[side], workload, seed, args.seconds, threads)
                    runs[side].append(run)
                    missing += "error" in run
                    shown = run.get("error") or ", ".join(
                        f"{k} {run['metrics'].get(k)}" for k in ("solve_s", "time_to_target_s"))
                    print(f"{workload} seed {seed} {side}: {shown}", flush=True)
            summary = summarize(runs["a"], runs["b"], end_to_end)
            report["workloads"][workload] = {"seeds": seeds, "first": first, "runs": runs,
                                             "summary": summary}
            for name, s in summary.items():
                if s["pairs"]:
                    print(f"{workload} {name}: {s['a_median']:.6g} -> {s['b_median']:.6g} "
                          f"{s['unit']}, b better in {s['b_wins']} of {s['pairs']}, "
                          f"a_iqr {s['a_iqr']:.3g}: {s['verdict']}")
    path = repo / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
