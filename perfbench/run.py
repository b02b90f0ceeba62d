"""Benchmark of the subnetpred reproduction: one command, three workloads.

    python3 perfbench/run.py --workload desk-evaluate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root; the program is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, taken
from spans around the program's public functions.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# probes at each end of the fresh interpreter's import, about 20 ms: no probe
# can run during it, and a short probe misses the bursts of load it sees
IMPORT_PROBES = 50

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s", "evaluate_s": "s", "decide_p50_ms": "ms", "decide_p95_ms": "ms",
    "peak_rss_mb": "MB", "success_rate": "fraction",
    "cov_prob": "fraction", "target_met": "fraction",
}


def nproc():
    return len(os.sched_getaffinity(0))


def limit_threads():
    """BLAS threads at most nproc; set before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc() or int(current) < 1:
            os.environ[var] = str(nproc())


def environment():
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": nproc(), "cpu": cpu}


def fresh_import(watch):
    """Time a fresh interpreter importing the pipeline, as a user's run
    starts.  It runs on one CPU with the probes that bracket it, so that they
    see that CPU's speed; no timer probes run, as they would contend with it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        watch.start(timer=False, end_probes=IMPORT_PROBES)
        # no timeout: with one, the wait polls and rounds up to 50 ms steps
        subprocess.run([sys.executable, "-c", "import subnetpred.pipeline"],
                       env=env, cwd=ROOT, check=True)
        watch.stop()
    finally:
        os.sched_setaffinity(0, cpus)


def quantile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def run(workload, seed, seconds, traced, quick, work):
    """Set up, then repeat units of work for up to `seconds` (at least one)."""
    from layers import COARSE, FINE, per_layer
    from speed import Stopwatch, set_sampling
    from tracer import Tracer
    from workloads import GROUP, Check

    # a traced run reports raw per-layer times only; without timer probes no
    # probe runs inside a span or inflates the untraced units it compares with
    set_sampling(not traced)
    checks = []
    coarse = Tracer()
    setups = []
    state = None
    for _ in range(1 if traced or quick else SETUP_REPEATS):
        watch = Stopwatch()
        fresh_import(watch)
        with coarse.install(COARSE):
            watch.start()
            state = workload.setup(seed, work, quick, coarse)
            watch.stop()
        setups.append(watch)

    fine = Tracer()
    units, walls = [], {False: [], True: []}
    fine_units = []
    start = perf_counter()
    index = 0
    while True:
        with_spans = traced and index % 2 == 1
        tracer = fine if with_spans else coarse
        tracer.current_unit = index
        with tracer.install(COARSE + (FINE if with_spans else [])):
            t0 = perf_counter()
            res = workload.unit(state, tracer, checks, index)
            walls[with_spans].append(perf_counter() - t0)
        for check in res.deferred:
            check()
        if with_spans:
            fine_units.append((index, res))
        units.append(res)
        for path in work.glob(f"*-{index}*"):
            shutil.rmtree(path, ignore_errors=True)
        index += 1
        # stop before a unit that would overrun `seconds`; traced runs go on
        # until they end on an untraced unit, so the overhead compares traced
        # units with untraced ones that are not the first in the process
        done = perf_counter() - start + walls[with_spans][-1] > seconds
        if done and (not traced or (fine_units and not with_spans)):
            break

    missing = sorted(set(coarse.missing + fine.missing))
    checks.append(Check("every wrapped function exists", not missing,
                        ", ".join(missing)))
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    if traced:
        metrics = per_layer(fine, [i for i, _ in fine_units], sum(walls[True]))
        last = fine_units[-1][1]
        metrics["split.param_max_rel_diff"] = last.extra.get(
            "split.param_max_rel_diff", 0.0)
        metrics["ra.overhead"] = last.quality["overhead"]
        # simulator throughput without spans inside it: the untraced calls
        sim_s = sum(coarse.end[i] - coarse.start[i]
                    for i, n in enumerate(coarse.name_idx)
                    if coarse.names[n] == "scenario.simulate_trace")
        metrics["scenario.sim_cycles_per_s"] = (
            coarse.counters.get("scenario.cycles", 0) / sim_s if sim_s else 0.0)
        metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                          / statistics.median(walls[False][1:]) - 1.0)
        fine.save(WORK / f"{workload.name}.spans.npz")
    else:
        # Times scaled by the host's speed (speed.py), each decision latency
        # by the scale of its chunk.  The median is the median over
        # groups of GROUP consecutive chunks of each group's scaled median;
        # the tail is pooled over the run.
        chunks = [c for u in units for c in u.chunks]
        scaled = [t * scale for lat, _, scale in chunks for t in lat]
        groups = [u.chunks[i:i + GROUP] for u in units
                  for i in range(0, len(u.chunks), GROUP)]
        group_p50 = [statistics.median(t for lat, _, _ in g for t in lat)
                     * statistics.fmean(s for _, _, s in g) for g in groups]
        metrics = {
            "setup_s": statistics.median(w.scaled for w in setups),
            "evaluate_s": statistics.median(u.watch.scaled for u in units),
            "decide_p50_ms": statistics.median(group_p50) * 1e3,
            "decide_p95_ms": quantile(scaled, 95) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - failed / attempted,
            "cov_prob": statistics.median(u.quality["cov_prob"] for u in units),
            "target_met": statistics.median(u.quality["target_met"] for u in units),
        }
        wall = [t for lat, _, _ in chunks for t in lat]
        info = {"units": len(units),
                "evaluate_wall_s": [u.watch.wall for u in units],
                "evaluate_scaled_s": [u.watch.scaled for u in units],
                "setup_wall_s": [w.wall for w in setups],
                "setup_scaled_s": [w.scaled for w in setups],
                "decisions": len(wall), "chunks": len(chunks),
                "decide_wall_p50_ms": statistics.median(wall) * 1e3,
                "decide_wall_p99_ms": quantile(wall, 99) * 1e3,
                "decide_scaled_p99_ms": quantile(scaled, 99) * 1e3,
                "chunk_scale_min_median_max": [
                    f(s for _, _, s in chunks)
                    for f in (min, statistics.median, max)],
                "decisions_per_s": len(wall) / sum(w for _, w, _ in chunks),
                "overhead": units[-1].quality["overhead"]}
        if "split.param_max_rel_diff" in units[-1].extra:
            info["split.param_max_rel_diff"] = units[-1].extra["split.param_max_rel_diff"]
        print("info " + json.dumps(info))
    return metrics, checks, attempted, failed


def report(workload, metrics, checks, units, attempted, failed):
    for check in checks:
        print(f"check {'ok  ' if check.ok else 'FAIL'} {check.name}"
              + (f" ({check.detail})" if check.detail else ""))
    for name, value in metrics.items():
        print(f"metric {workload} {name} = {value:.6g} {units[name]}")
    correct = bool(checks) and all(c.ok for c in checks) and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("desk-evaluate", "scenario-sweep",
                                               "online-decide"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="every workload, untraced and traced, on shortened "
                             "desk-shape inputs")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "subnetpred" / "pipeline.py").is_file():
        print(f"error: no program source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    # a terminated run still removes its scratch directories
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    limit_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    from layers import UNITS
    from workloads import WORKLOADS

    print("env " + json.dumps(environment()))
    work = WORK / str(os.getpid())
    units = {**END_TO_END, **UNITS}
    jobs = [(args.workload, args.trace)] if not args.self_check else \
        [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    ok = True
    try:
        for name, trace in jobs:
            t0 = perf_counter()
            metrics, checks, attempted, failed = run(
                WORKLOADS[name], args.seed, 1.0 if args.self_check else args.seconds,
                bool(trace), args.self_check, work)
            result = report(name, metrics, checks, units, attempted, failed)
            ok &= result["correct"]
            print(f"run {name} seed={args.seed} trace={trace} "
                  f"wall={perf_counter() - t0:.1f}s correct={result['correct']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.self_check:
        print("self-check " + ("passed" if ok else "FAILED"))
    else:
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
