"""Regenerate reference.json: the stored outcome of every job variant.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each variant of each job once, untraced, and stores its exit code,
PASS/FAIL line, verdict flags, statistics and report.json SHA-256.  It first
checks every outcome against the job's designed expectations (workloads.py)
and refuses to write a reference that breaks them.  Regenerate only when a
change to bergman moves outputs on purpose, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import jobs as jobmod
import run as bench
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    names = args.workload or sorted(workloads.WORKLOADS)

    path = os.path.join(bench.HERE, "reference.json")
    stored = {"jobs": {}}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    env = jobmod.job_env(bench.ROOT)
    workdir = os.path.join(bench.ROOT, ".bench_work", f"reference-{os.getpid()}")
    errors = []
    try:
        for name in names:
            for v in range(workloads.VARIANTS):
                variants = {k: v for k in workloads.job_keys(name)}
                shutil.rmtree(workdir, ignore_errors=True)
                for job in workloads.write_inputs(name, variants, workdir):
                    res = jobmod.run_job([sys.executable, "-m", "bergman"], job,
                                         workdir, env)
                    got = jobmod.outcome(job, res)
                    errors += jobmod.expectation_errors(job, got)
                    stored["jobs"][job.ref_key] = got
                    bench.log(f"{job.ref_key}: exit {res.exit} "
                              f"{res.wall_s:.2f} s {res.stdout.strip()[:100]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if errors:
        bench.log("designed expectations broken; reference not written:")
        for e in errors:
            bench.log("  " + e)
        return 1
    stored["variants"] = workloads.VARIANTS
    stored["made_with"] = bench.environment()
    stored["jobs"] = dict(sorted(stored["jobs"].items()))
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
