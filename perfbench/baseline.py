"""Re-measure the layer baseline table of ROADMAP.md with medians.

    python3 perfbench/baseline.py [--reps 3] [--out FILE]

Each row calls one public function directly, `--reps` times in this
process, with BLAS capped at the benchmark's thread count, and reports the
median and quartiles of the wall times.  The rows are the sizes the ROADMAP
table names; several are too slow for a benchmark pass, so they live here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import run


def rows():
    import testspaces.embeddings as em
    import testspaces.generators as gen
    import testspaces.l2_distortion as l2
    import testspaces.markov as mk
    import testspaces.metric_core as mc

    d5_unit = gen.diamond(5).graph
    d5_scaled = gen.diamond(5, gen.diamond_weighting()).graph
    t4, t5 = mc.apsp(gen.binary_tree(4)), mc.apsp(gen.binary_tree(5))
    d3 = mk.downhill_walk(gen.diamond(3, gen.diamond_weighting()))
    l2w = mk.downhill_walk(gen.laakso(2, gen.laakso_weighting()))
    return {
        "apsp(D_5) unit": lambda: mc.apsp(d5_unit),
        "apsp(D_5) scaled": lambda: mc.apsp(d5_scaled),
        "bourgain_distortion(8)": lambda: em.bourgain_distortion(8),
        "bourgain_distortion(9)": lambda: em.bourgain_distortion(9),
        "min_distortion_l2(T_4)": lambda: l2.min_distortion_l2(t4),
        "min_distortion_l2(T_5)": lambda: l2.min_distortion_l2(t5),
        "exact_convexity D_3": lambda: mk.exact_convexity(d3.chain, d3.metric_map, d3.space, 2),
        "exact_convexity L_2": lambda: mk.exact_convexity(l2w.chain, l2w.metric_map, l2w.space, 2),
        "mc_convexity 1e5 D_3": lambda: mk.mc_convexity(
            d3.chain, d3.metric_map, d3.space, 2.0, 7, 100_000),
        "mc_convexity 1e5 L_2": lambda: mk.mc_convexity(
            l2w.chain, l2w.metric_map, l2w.space, 2.0, 7, 100_000),
        "fork_gap_estimate(1.5)": lambda: l2.fork_gap_estimate(1.5),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    run.prepare_imports()
    out = {}
    for name, fn in rows().items():
        times = []
        for _ in range(args.reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        out[name] = {"median_s": statistics.median(times), "q1_s": q1, "q3_s": q3,
                     "values_s": times}
        print(f"{name:<26} median {out[name]['median_s']:8.3f} s  "
              f"q1 {q1:8.3f}  q3 {q3:8.3f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"reps": args.reps, "blas_threads": run.THREAD_CAP, "rows": out},
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
