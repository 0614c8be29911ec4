"""Measurement, correctness gates and per-layer metrics behind ``run.py``.

Imported only after ``run.py`` has capped the BLAS/OpenMP thread pools,
because those settings are read when numpy loads.
"""

import ctypes
import platform
import resource
import statistics
import time
import traceback

import numpy as np
import scipy

from pdfp.diagnostics import snr, write_trace_csv
from pdfp.tomo import read_pgm, write_pgm
from spans import Tracer
from workloads import ROADMAP_MS_PER_CALL, ROOT, problem_facts

# Extra problem assemblies before the timed solves, so that setup_s is a
# median over several samples even when only one solve fits in a run.
SETUP_REPEATS = 4

clock = time.perf_counter


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_sizes():
    """L2 (per core) and L3 sizes in MiB from sysconf, or None where unknown."""
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    sizes = [libc.sysconf(191), libc.sysconf(194)]
    return [s / 2 ** 20 if s > 0 else None for s in sizes]


def environment(facts, nproc, threads):
    """The record printed with every result: versions, cores, caches, working set."""
    l2, l3 = cache_sizes()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "threads": threads,
        "l2_mib_per_core": l2,
        "l3_mib": l3,
        "working_set_mib": {k: round(v, 3) for k, v in facts.items() if k.endswith("_mib")},
        "nnz": facts["nnz"],
    }


def first_crossing(snrs, target):
    hits = np.nonzero(snrs >= target)[0]
    return int(hits[0]) + 1 if hits.size else None


def gate_failures(w, state, trace, x_true):
    """Reasons the solve is wrong; empty when every gate holds for this seed."""
    bad = []
    if not (np.isfinite(state.v).all() and np.isfinite(state.x).all()):
        bad.append("non-finite final state")
    if not (np.isfinite(trace.objectives).all() and np.isfinite(trace.snrs).all()):
        bad.append("non-finite trace")
    if trace.n_iter != w.budget:
        bad.append(f"ran {trace.n_iter} iterations, budget is {w.budget}")
    if first_crossing(trace.snrs, w.target_db) is None:
        bad.append(f"never reached {w.target_db} dB")
    final = snr(state.x, x_true.ravel())
    lo, hi = w.snr_band
    if not lo <= final <= hi:
        bad.append(f"final SNR {final:.4f} dB outside [{lo}, {hi}]")
    if not abs(final - trace.snrs[-1]) <= 1e-9:
        bad.append("trace SNR disagrees with the final iterate")
    return bad


def write_artifacts(out, trace, state, x_true, tr=None):
    """Write trace.csv and recon.pgm as ``pdfp solve`` does; return bytes written."""
    write_csv, write_img = write_trace_csv, write_pgm
    if tr is not None:
        write_csv = tr.wrap("write_trace_csv", write_csv)
        write_img = tr.wrap("write_pgm", write_img)
    write_csv(trace, out / "trace.csv")
    write_img(out / "recon.pgm", state.x.reshape(x_true.shape))
    return sum((out / f).stat().st_size for f in ("trace.csv", "recon.pgm"))


def artifact_failures(out, trace, state, x_true):
    bad = []
    with open(out / "trace.csv") as fh:
        if sum(1 for _ in fh) != trace.n_iter + 1:
            bad.append("trace.csv row count")
    img = read_pgm(out / "recon.pgm")
    want = np.clip(state.x.reshape(x_true.shape), 0.0, 1.0)
    if img.shape != x_true.shape or np.abs(img - want).max() > 1.0 / 65535:
        bad.append("recon.pgm does not hold the final iterate")
    return bad


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(w, seconds, out):
    """Repeat (assemble, solve, write) until ``seconds`` are used; report medians."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        w.build()
        setups.append(clock() - t0)
    solves, totals, ttts, iters, snrs = [], [], [], [], []
    attempted = failed = 0
    facts = None
    start = clock()
    while True:
        attempted += 1
        try:
            t0 = clock()
            problem, x_true = w.build()
            t1 = clock()
            state, trace = w.solve(problem, x_true)
            t2 = clock()
            write_artifacts(out, trace, state, x_true)
            t3 = clock()
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        bad = gate_failures(w, state, trace, x_true) + artifact_failures(out, trace, state, x_true)
        failed += bool(bad)
        k = first_crossing(trace.snrs, w.target_db)
        setups.append(t1 - t0)
        solves.append(t2 - t1)
        totals.append(t3 - t0)
        if k is not None:
            ttts.append(trace.wall_ms[k - 1] / 1e3)
            iters.append(k)
        snrs.append(float(trace.snrs[-1]))
        facts = facts or problem_facts(problem)
        print(f"rep {attempted}: setup {t1 - t0:.4f} s, solve {t2 - t1:.4f} s, "
              f"write {t3 - t2:.4f} s, target at iteration {k}, final SNR {snrs[-1]:.4f} dB, "
              f"gates {'ok' if not bad else '; '.join(bad)}")
        # Drop this rep's problem before the next assembly, so peak_rss_mb
        # does not depend on how many reps fit in the run.
        del problem, x_true, state, trace
        if clock() - start + (t3 - t0) > seconds:
            break

    def med(xs):
        return statistics.median(xs) if xs else None

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(med(setups), "s"),
        "solve_s": metric(med(solves), "s"),
        "time_to_target_s": metric(med(ttts), "s"),
        "iters_to_target": metric(med(iters), "count"),
        "final_snr_db": metric(med(snrs), "dB"),
        "total_s": metric(med(totals), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    print(f"setup samples: {len(setups)}, solve samples: {len(solves)}")
    return metrics, attempted, failed, facts


def traced(w, out):
    """One untraced and one traced solve; per-layer metrics from the traced one."""
    tr = Tracer()
    problem_t, x_true_t = w.build_traced(tr)
    n_setup = len(tr)
    problem, x_true = w.build()
    facts = problem_facts(problem)

    t0 = clock()
    state, trace = w.solve(problem, x_true)
    plain_s = clock() - t0
    solve_id = len(tr)
    t0 = clock()
    state_t, trace_t = w.solve(problem_t, x_true_t, tr)
    traced_s = clock() - t0
    n_solve = len(tr)
    nbytes = write_artifacts(out, trace_t, state_t, x_true_t, tr)

    bad_plain = gate_failures(w, state, trace, x_true)
    bad_traced = gate_failures(w, state_t, trace_t, x_true_t)
    bad_traced += artifact_failures(out, trace_t, state_t, x_true_t)
    if not (np.array_equal(state_t.x, state.x) and np.array_equal(state_t.v, state.v)):
        bad_traced.append("traced and untraced iterates differ")
    for label, secs, bad in (("untraced", plain_s, bad_plain), ("traced", traced_s, bad_traced)):
        print(f"{label} solve: {secs:.4f} s, gates {'ok' if not bad else '; '.join(bad)}")

    m = layer_metrics(tr, w, facts, n_setup, solve_id, n_solve, trace_t.inner_iters, trace_t.n_iter)
    m["diagnostics.artifact_bytes"] = metric(nbytes, "bytes")
    m["tracing.overhead_pct"] = metric(100.0 * (traced_s - plain_s) / plain_s, "%")
    print_op_report(w, m)
    return m, 2, bool(bad_plain) + bool(bad_traced), facts


def layer_metrics(tr, w, facts, n_setup, solve_id, n_solve, inner, n_iter):
    """Per-layer metrics from the spans: set-up spans are ``[0, n_setup)``, the
    solve span is ``solve_id`` and its descendants run up to ``n_solve``."""
    names, dur, self_t = tr.table()
    in_solve = np.zeros(len(names), dtype=bool)
    in_solve[solve_id + 1:n_solve] = True
    in_setup = np.zeros(len(names), dtype=bool)
    in_setup[:n_setup] = True
    in_sched = tr.under({"schedule_gamma", "schedule_lam", "schedule_alpha"})
    in_power = tr.under({"quadratic_fn", "make_problem"}) & in_setup
    is_op = np.isin(names, ["A_fwd", "A_adj", "D_fwd", "D_adj"])

    def calls(name):
        return int(np.sum(in_solve & (names == name)))

    def seconds_in(name, where, times=dur):
        return float(np.sum(times[where & (names == name)]))

    def ms_per_call(name, times=dur):
        c = calls(name)
        return 1e3 * seconds_in(name, in_solve, times) / c if c else 0.0

    m = {}
    for op in ("A_fwd", "A_adj", "D_fwd", "D_adj"):
        m[f"linops.{op}.calls_per_iter"] = metric(calls(op) / n_iter, "count")
        m[f"linops.{op}.ms_per_call"] = metric(ms_per_call(op), "ms")
    for op in ("A_fwd", "A_adj"):
        ms = m[f"linops.{op}.ms_per_call"]["value"]
        m[f"linops.{op}.gbps_computed"] = metric(
            facts[f"{op}_bytes"] / (ms * 1e-3) / 1e9 if ms else 0.0, "GB/s")
    m["linops.op_norm_sq_s"] = metric(float(np.sum(dur[in_power & is_op])), "s")
    m["linops.op_norm_sq_calls"] = metric(int(np.sum(in_power & is_op)), "count")
    m["prox.f1_prox.calls_per_iter"] = metric(calls("f1_prox") / n_iter, "count")
    m["prox.f1_prox.ms_per_call"] = metric(ms_per_call("f1_prox"), "ms")
    m["prox.f2_grad.calls_per_iter"] = metric(calls("f2_grad") / n_iter, "count")
    m["prox.f2_grad.ms_per_call"] = metric(ms_per_call("f2_grad"), "ms")
    m["prox.f2_grad.self_ms_per_call"] = metric(ms_per_call("f2_grad", self_t), "ms")
    m["prox.group_l2_norm_fn_s"] = metric(seconds_in("group_l2_norm_fn", in_setup), "s")
    m["prox.quadratic_fn_s"] = metric(seconds_in("quadratic_fn", in_setup), "s")
    sched_top = in_solve & np.char.startswith(names, "schedule_")
    m["schedules.ms_per_iter"] = metric(1e3 * float(np.sum(dur[sched_top])) / n_iter, "ms")
    m["schedules.A_calls_per_iter"] = metric(
        int(np.sum(in_sched & in_solve & np.isin(names, ["A_fwd", "A_adj"]))) / n_iter, "count")
    m["solvers.self_ms_per_iter"] = metric(1e3 * float(self_t[solve_id]) / n_iter, "ms")
    objective_s = seconds_in("f1_value", in_solve) + seconds_in("f2_value", in_solve)
    m["solvers.objective_ms_per_iter"] = metric(1e3 * objective_s / n_iter, "ms")
    # The kernel solvers take exactly one dual step per iteration.
    m["solvers.inner_per_outer"] = metric(
        float(np.mean(inner)) if inner is not None else 1.0, "count")
    m["solvers.inner_capped_frac"] = metric(
        float(np.mean(inner == w.inner_cap)) if inner is not None else 0.0, "ratio")
    m["tomo.build_projection_matrix_s"] = metric(
        seconds_in("build_projection_matrix", in_setup), "s")
    m["tomo.shepp_logan_s"] = metric(seconds_in("shepp_logan", in_setup), "s")
    m["tomo.nnz"] = metric(facts["nnz"], "count")
    write_s = sum(seconds_in(f, ~in_setup & ~in_solve) for f in ("write_trace_csv", "write_pgm"))
    m["diagnostics.write_ms"] = metric(1e3 * write_s, "ms")
    return m


def print_op_report(w, m):
    """Operator counts and ms per call next to the ROADMAP baseline (a report, not a gate)."""
    ops = ("A_fwd", "A_adj", "D_fwd", "D_adj")
    counts = {op: m[f"linops.{op}.calls_per_iter"]["value"] for op in ops}
    print("operator applications per iteration: "
          + ", ".join(f"{op} {c:g}" for op, c in counts.items()))
    if w.roadmap_ops is not None:
        same = all(counts[op] == c for op, c in w.roadmap_ops.items())
        print(f"ROADMAP baseline {w.roadmap_ops}: {'matches' if same else 'differs'}")
    print("ms per call (measured / ROADMAP table): " + ", ".join(
        f"{name} {m[name]['value']:.3f}/{ref}" for name, ref in ROADMAP_MS_PER_CALL.items()))
