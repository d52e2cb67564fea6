"""testspaces benchmark: one workload, closed loop, one job in flight.

    python3 perfbench/run.py --workload exact-metric --seed 1 --seconds 16 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` directory.  The workload's job list is run in passes, one job at a
time in this process.  The pass count is a constant of the workload, scaled
by --seconds and never taken from measured time, so every commit does the
same work.  Each job's output is checked after the job, outside the timed
region.

--trace 0 prints the end-to-end metrics (wall_s, job_p50_s, job_tail_s,
setup_s, peak_rss_mb).  Their times are wall times rescaled to a fixed host
speed: the times of a pass are multiplied by REFERENCE_PROBE_S over the
median time of probe(), a fixed pure-Python loop run between its jobs, and
each set-up trial likewise by the probes around it.  The raw wall times are
printed beside them.  --trace 1 alternates untraced and traced passes and
prints the per-layer metrics, and writes the spans to
.bench_build/trace/<workload>-seed<seed>.json.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

# One BLAS/OpenMP thread (never more than nproc): a single min_distortion_l2
# call varies by about 20% on a 2-core machine when threads float.
THREAD_CAP = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_TRIALS = 3
REFERENCE_SECONDS = 16  # run_seconds in BENCHMARK.json: each workload's passes are for it
# Median time of probe() on the 2-vCPU host of trajectory/point-0.json.  That
# host's speed changes by up to 1.5x, over seconds and over minutes, and job
# times follow it: rescaled by the probes between the jobs, a pass's wall time
# varied about half as much from run to run as it did raw.
REFERENCE_PROBE_S = 0.0095
SETUP_PROBES = 3  # probes before and after each set-up trial

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source, key): medians over the traced passes of a
# layer's self time ("self") or a work count ("count"); "build_*" figures come
# from the traced input build, which set-up repeats
PER_LAYER = {
    "metric_core.apsp.busy_s": ("s", "self", "metric_core.apsp"),
    "metric_core.verify.busy_s": ("s", "self", "metric_core.verify"),
    "metric_core.geodesics.busy_s": ("s", "self", "metric_core.geodesics"),
    "metric_core.apsp.entries": ("count", "count", "metric_core.apsp.entries"),
    "metric_core.verify.triples": ("count", "count", "metric_core.verify.triples"),
    "metric_core.geodesics.count": ("count", "count", "metric_core.geodesics.count"),
    "embeddings.distortion.busy_s": ("s", "self", "embeddings.distortion"),
    "embeddings.bourgain.busy_s": ("s", "self", "embeddings.bourgain"),
    "embeddings.oracle.busy_s": ("s", "self", "embeddings.oracle"),
    "embeddings.distortion.pairs": ("count", "count", "embeddings.distortion.pairs"),
    "embeddings.oracle.maps": ("count", "count", "embeddings.oracle.maps"),
    "l2_distortion.sdp.busy_s": ("s", "self", "l2_distortion.sdp"),
    "l2_distortion.sdp.calls": ("count", "count", "l2_distortion.sdp.calls"),
    "l2_distortion.sdp.iterations": ("count", "count", "l2_distortion.sdp.iterations"),
    "l2_distortion.sdp.stalled": ("count", "count", "l2_distortion.sdp.stalled"),
    "l2_distortion.sdp.undecided": ("count", "count", "l2_distortion.sdp.undecided"),
    "l2_distortion.sdp.feasible_ratio": ("ratio", "ratio", "l2_distortion.sdp"),
    "l2_distortion.l2min.busy_s": ("s", "self", "l2_distortion.l2min"),
    "l2_distortion.fork_gap.busy_s": ("s", "self", "l2_distortion.fork_gap"),
    "l2_distortion.fork_select.busy_s": ("s", "self", "l2_distortion.fork_select"),
    "markov.exact.busy_s": ("s", "self", "markov.exact"),
    "markov.mc.busy_s": ("s", "self", "markov.mc"),
    "markov.walk.busy_s": ("s", "self", "markov.walk"),
    "markov.exact.mult_ops": ("count", "count", "markov.exact.mult_ops"),
    "markov.mc.steps": ("count", "count", "markov.mc.steps"),
    "exactlp.solve_lp.calls": ("count", "count", "exactlp.solve_lp.calls"),
    "exactlp.solve_lp.busy_s": ("s", "self", "exactlp.solve_lp"),
    "exactlp.solve_lp.tableau_entries": ("count", "count", "exactlp.solve_lp.tableau_entries"),
    "rnp.family.busy_s": ("s", "self", "rnp.family"),
    "rnp.thickness.busy_s": ("s", "self", "rnp.thickness"),
    "rnp.martingale.busy_s": ("s", "self", "rnp.martingale"),
    "rnp.lines.busy_s": ("s", "self", "rnp.lines"),
    "rnp.thickness.configurations": ("count", "count", "rnp.thickness.configurations"),
    "rnp.thickness.partial": ("count", "count", "rnp.thickness.partial"),
    "formats.read.busy_s": ("s", "self", "formats.read"),
    "formats.write.busy_s": ("s", "self", "formats.write"),
    "formats.bytes": ("count", "bytes", None),
    "cli.self_s": ("s", "self", "cli"),
    "unattributed.self_s": ("s", "self", "job"),
    "generators.busy_s": ("s", "self", "generators"),
    "generators.vertices": ("count", "count", "generators.vertices"),
    "generators.build_busy_s": ("s", "build_self", "generators"),
    "generators.build_vertices": ("count", "build_count", "generators.vertices"),
    "trace.overhead_s": ("s", "overhead", None),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(REFERENCE_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="import and build the workload's inputs into DIR, then exit")
    return p.parse_args(argv)


def prepare_imports():
    """Cap BLAS threads, then import the checkout's library (never another copy)."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, SRC)
    import testspaces

    if os.path.dirname(os.path.abspath(testspaces.__file__)) != os.path.join(SRC, "testspaces"):
        raise SystemExit(f"perfbench: imported testspaces from {testspaces.__file__}, not {SRC}")


def env_stamp(args) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas_threads": THREAD_CAP,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


def probe() -> float:
    """Time of a fixed pure-Python loop (about 10 ms): it tracks the host's
    speed and nothing the benchmarked library does, as it allocates no
    containers and calls nothing."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def time_setup(args) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import and build the inputs, raw
    and rescaled to the reference host speed."""
    raw, scaled = [], []
    for trial in range(SETUP_TRIALS):
        probes = [probe() for _ in range(SETUP_PROBES)]
        workdir = os.path.join(BUILD, "work", f"{args.workload}-setup{trial}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", workdir]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        shutil.rmtree(workdir, ignore_errors=True)
        probes += [probe() for _ in range(SETUP_PROBES)]
        scaled.append(raw[-1] * REFERENCE_PROBE_S / statistics.median(probes))
    return raw, scaled


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "testspaces", "__init__.py")):
        print(f"perfbench: no library at {SRC}/testspaces; run from a full checkout",
              file=sys.stderr)
        return 2
    prepare_imports()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    for mod in workload.imports:
        importlib.import_module(mod)
    if args.setup_only:
        shutil.rmtree(args.setup_only, ignore_errors=True)
        workload.build(wl.Picker(args.seed), args.setup_only)
        return 0

    os.chdir(ROOT)
    stamp = env_stamp(args)
    setup_raw, setup_times = time_setup(args)

    workdir = os.path.relpath(os.path.join(BUILD, "work", args.workload), ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
        tracer.job = "setup"
    jobs = workload.build(wl.Picker(args.seed), workdir)
    if args.trace:
        tracer.uninstall()
    build_spans = list(tracer.spans)
    with open(os.path.join(HERE, "expected.json")) as fh:
        prefix = args.workload + "/"
        expected = {k[len(prefix):]: v for k, v in json.load(fh).items() if k.startswith(prefix)}

    passes = max(1, round(workload.passes * args.seconds / REFERENCE_SECONDS))
    plan = [False] * passes
    if args.trace:
        half = max(2, passes // 2)
        plan = [False, True] * half
    stamp["jobs_per_pass"] = len(jobs)

    latencies: list[float] = []  # rescaled
    by_job: dict[str, list[float]] = {job.key: [] for job in jobs}  # raw
    walls = {False: [], True: []}  # raw
    scaled_walls: list[float] = []
    pass_probes: list[float] = []  # median probe time of each untraced pass
    traced_passes: list[list] = []
    attempted = failed = 0
    reasons: list[str] = []
    for index, traced in enumerate(plan):
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        wall = 0.0
        pass_latencies, probes = [], []
        for job in jobs:
            if not args.trace:
                probes.append(probe())
            tracer.job = f"{index}:{job.key}"
            start = time.perf_counter()
            try:
                out = tracer.span("job", job.run) if traced else job.run()
            except Exception as exc:  # a raised error is checked like any output
                out = exc
            elapsed = time.perf_counter() - start
            wall += elapsed
            if not traced:
                pass_latencies.append(elapsed)
                by_job[job.key].append(elapsed)
            attempted += 1
            reason = wl.check(job, out, expected)
            if reason is not None:
                failed += 1
                reasons.append(f"{job.key}: {reason}")
            del out
        walls[traced].append(wall)
        if not args.trace:
            probes.append(probe())
            pass_probes.append(statistics.median(probes))
            factor = REFERENCE_PROBE_S / pass_probes[-1]
            scaled_walls.append(wall * factor)
            latencies.extend(t * factor for t in pass_latencies)
        if traced:
            tracer.uninstall()
            traced_passes.append(tracer.spans[first_span:])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(workdir, ignore_errors=True)

    stamp["passes"] = len(walls[False]) + len(walls[True])
    stamp["jobs"] = attempted
    print("env " + json.dumps(stamp, sort_keys=True))
    for line in reasons[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    print("samples " + json.dumps({"pass_wall_s": walls[False], "job_s": by_job,
                                   "pass_probe_s": pass_probes, "setup_s": setup_raw}))
    if not args.trace:
        for key, times in by_job.items():
            print(f"job {key:<40} {statistics.median(times):10.6f} s  median of {len(times)}")
        tail_s, tail_pct, n = tail(latencies)
        values = {
            "wall_s": statistics.fmean(scaled_walls),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "job_tail_s": f"p{tail_pct:.1f} of {n} jobs",
            "wall_s": f"mean of {len(walls[False])} passes, "
                      f"raw {statistics.fmean(walls[False]):.6f} s",
            "setup_s": f"median of {len(setup_times)} fresh interpreters, "
                       f"raw {statistics.median(setup_raw):.6f} s",
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for k, v in values.items():
            print(f"{k:<14} {v:12.6f} {END_TO_END_UNITS[k]:<6} {notes.get(k, '')}")
        print(f"{'failed_frac':<14} {failed / attempted:12.6f} ratio  {failed} of {attempted} jobs")
        print(f"probe {statistics.median(pass_probes):.6f} s (median over passes), reference "
              f"{REFERENCE_PROBE_S} s: the times above are rescaled by reference / probe")
    else:
        metrics = layer_metrics(traced_passes, build_spans, walls)
        for k, m in metrics.items():
            label = f"computed: {spans.COMPUTED[k]}" if k in spans.COMPUTED else ""
            print(f"{k:<36} {m['value']:16.6f} {m['unit']:<6} {label}")
        write_trace(args, stamp, build_spans, traced_passes, metrics)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(traced_passes, build_spans, walls) -> dict:
    per_pass = [(spans.self_times(p), spans.counts(p)) for p in traced_passes]
    build_self, build_counts = spans.self_times(build_spans), spans.counts(build_spans)
    out = {}
    for name, (unit, source, key) in PER_LAYER.items():
        if source == "self":
            value = statistics.median(s.get(key, 0.0) for s, _ in per_pass)
        elif source == "count":
            value = statistics.median(c.get(key, 0) for _, c in per_pass)
        elif source == "ratio":
            value = statistics.median(
                c.get(f"{key}.feasible", 0) / c[f"{key}.calls"] if c.get(f"{key}.calls") else 0.0
                for _, c in per_pass
            )
        elif source == "bytes":
            value = statistics.median(
                c.get("formats.read.bytes", 0) + c.get("formats.write.bytes", 0)
                for _, c in per_pass
            )
        elif source == "build_self":
            value = build_self.get(key, 0.0)
        elif source == "build_count":
            value = build_counts.get(key, 0)
        else:  # overhead
            value = statistics.fmean(walls[True]) - statistics.fmean(walls[False])
        out[name] = {"value": value, "unit": unit}
    return out


def write_trace(args, stamp, build_spans, traced_passes, metrics) -> None:

    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    path = os.path.join(BUILD, "trace", f"{args.workload}-seed{args.seed}.json")
    recorded = build_spans + [s for p in traced_passes for s in p]
    doc = {
        "env": stamp,
        "computed_counters": spans.COMPUTED,
        "metrics": metrics,
        "self_s_per_pass": [spans.self_times(p) for p in traced_passes],
        "counts_per_pass": [spans.counts(p) for p in traced_passes],
        "spans": [[s.sid, s.name, s.start, s.end, s.parent, s.job, s.counts, s.error]
                  for s in recorded],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
