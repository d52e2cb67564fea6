"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--sets 2] [--workload NAME ...] [--trace] [--out FILE]

For every workload and seed it runs perfbench/run.py in a fresh process and
reads the last line of its output.  For each metric it prints the median,
the quartiles (statistics.quantiles with n=4) and the spread: the distance
between the quartiles as a share of the median.  With --sets N it runs N
sets of the same seeds, interleaved in time (seed by seed), and prints how
far the last set's median lies from the first's.  --out writes the same
summary, with the environment stamp and every run's raw values, as JSON: a
point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return env, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def summarise_set(runs: list[dict]) -> dict:
    entry = {"attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs), "metrics": {}}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        entry["metrics"][metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                                    **summarise(values)}
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", default=None)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--sets", type=int, default=1,
                   help="run this many sets of the same seeds, interleaved in time")
    p.add_argument("--trace", action="store_true", help="also one traced run per workload")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "sets": args.sets, "workloads": {}}
    # runs[name][set] in seed order; each seed runs every set and workload
    # before the next seed, so host drift falls on all sets alike
    runs = {name: [[] for _ in range(args.sets)] for name in names}
    envs = {}
    for seed in seeds:
        for k in range(args.sets):
            for name in names:
                t0 = time.perf_counter()
                envs[name], res = run_once(name, seed, seconds, 0)
                runs[name][k].append(res)
                print(f"{name} set {k} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']} ({time.perf_counter() - t0:.1f} s)", flush=True)
    for name in names:
        sets = [summarise_set(r) for r in runs[name]]
        entry = {"env": envs[name], **sets[0]}
        if args.sets > 1:
            entry["sets"] = sets
        print(name)
        for metric, first in sets[0]["metrics"].items():
            for k, one in enumerate(sets):
                s = one["metrics"][metric]
                print(f"  {metric:<14} set {k} median {s['median']:.6f}  q1 {s['q1']:.6f}  "
                      f"q3 {s['q3']:.6f}  spread {s['spread']:.4f}")
            if args.sets > 1:
                last = sets[-1]["metrics"][metric]["median"]
                shift = (last - first["median"]) / first["median"] if first["median"] else 0.0
                entry["metrics"][metric]["median_shift"] = shift
                print(f"  {metric:<14} median shift, last set vs first: {shift:+.4f}")
        if args.trace:
            _, res = run_once(name, seeds[0], seconds, 1)
            entry["per_layer"] = res["metrics"]
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
