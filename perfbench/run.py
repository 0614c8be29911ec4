"""The repository benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload ct256-constant --seed 1 --seconds 30 --trace 0

``--trace 0`` times the program untraced and prints the end-to-end metrics.
``--trace 1`` solves once untraced and once with every public callable
wrapped in a span, checks that both runs end on bit-identical iterates, and
prints the per-layer metrics plus the tracing overhead. Both modes run the
correctness gates; a failed gate counts as a failed operation. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Workloads, metrics and the noise
measured on the reference machine are described in ``perfbench/README.md``.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Cap BLAS/OpenMP pools at the cores this process may use (before numpy loads)."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= NPROC):
            os.environ[var] = str(NPROC)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "pdfp" / "__init__.py").is_file():
        print(f"error: no pdfp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    w.configure(args.seed)
    print(f"workload {w.name}: seed {args.seed}, budget {w.budget} iterations, "
          f"target {w.target_db} dB, final SNR band {list(w.snr_band)} dB")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        if args.trace:
            metrics, attempted, failed, facts = measure.traced(w, Path(tmp))
        else:
            metrics, attempted, failed, facts = measure.end_to_end(w, args.seconds, Path(tmp))
    if facts is not None:
        threads = {var: os.environ[var] for var in THREAD_VARS}
        print("env " + json.dumps(measure.environment(facts, NPROC, threads), sort_keys=True))
    for name, mv in metrics.items():
        print(f"metric {name} = {mv['value']} {mv['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
