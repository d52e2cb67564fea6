"""Record the expected output of every job variant into expected.json.

    python3 perfbench/record.py [--workload NAME]

Runs each job of each workload once per seeded variant on the current code
and stores what the checks compare against: a digest (and, when small, the
payload) of each exact result, the recorded outcome of numerical jobs, and
each CLI job's exit code and result.  Run it only on a commit whose outputs
are the reference; it then re-checks every output against the new table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None, help="record only this workload")
    args = p.parse_args(argv)
    run.prepare_imports()
    import workloads as wl

    path = os.path.join(run.HERE, "expected.json")
    expected = {}
    if os.path.exists(path):
        with open(path) as fh:
            expected = json.load(fh)
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    expected = {k: v for k, v in expected.items() if k.split("/", 1)[0] not in names}
    os.chdir(run.ROOT)
    outputs = []
    for name in names:
        workload = wl.WORKLOADS[name]
        workdir = os.path.relpath(os.path.join(run.BUILD, "work", name), run.ROOT)
        done: set[str] = set()
        for variant in range(wl.VARIANTS):
            shutil.rmtree(workdir, ignore_errors=True)
            jobs = workload.build(wl.Picker(fixed=variant), workdir)
            for job in jobs:
                # cli jobs of one variant read each other's files: run them all
                if job.key in done and job.kind != "cli":
                    continue
                try:
                    out = job.run()
                except Exception as exc:
                    out = exc
                if job.key not in done:
                    expected[f"{name}/{job.key}"] = wl.record_entry(job, out)
                    done.add(job.key)
                outputs.append((name, job, out))
            print(f"{name}: variant {variant} recorded", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    bad = 0
    for name, job, out in outputs:
        table = {k[len(name) + 1:]: v for k, v in expected.items() if k.startswith(name + "/")}
        reason = wl.check(job, out, table)
        if reason is not None:
            bad += 1
            print(f"CHECK FAILS {name}/{job.key}: {reason}")
    print(f"{len(outputs)} outputs recorded, {bad} fail their check")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
