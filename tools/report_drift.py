"""Compare what two source trees decide on every pinned benchmark run.

    python tools/report_drift.py PARENT CHANGE OUT.json [--workload NAME] [--variants N]

Runs every pinned run of report_digests.py (every variant of every job of
both benchmark workloads; --workload keeps one workload, --variants the
first N variants of each job) as `python -m bergman ... --deterministic`,
once with PARENT/src and once with CHANGE/src on the path, and reads each run's
outcome (exit code, verify PASS/FAIL line, verdict flags and statistics)
with perfbench/jobs.py's `outcome`, imported, not changed.  CHANGE's run is
measured against PARENT's with `jobs.compare`, as the benchmark measures a
run against its reference.  OUT holds, per job "workload/job": how many of
its runs wrote byte-identical output (report_digests.py's digest), whether
every run kept its exit code and its verdict flags, the largest relative
drift of any statistic, and that statistic's key and PARENT value; and the
same totals over all runs.

Exits 1 when any run changes its exit code, its verify line or a verdict
flag, or drifts past jobs.STAT_RTOL; otherwise 0.
"""

import argparse
import json
import math
import os
import sys
import types

sys.dont_write_bytecode = True  # read perfbench/, write nothing into it
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import jobs  # noqa: E402
import workloads  # noqa: E402
from report_digests import add_run_filters, pinned_runs, run_digest  # noqa: E402


def run_outcome(args, workdir, out_dir, env):
    """(digest, jobs.outcome) of `python -m bergman *args` run in workdir."""
    digest, proc = run_digest([sys.executable, "-m", "bergman", *args], workdir, out_dir, env)
    report = None
    path = os.path.join(workdir, out_dir, "report.json")
    if os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
    stdout = (proc.stdout + proc.stderr).decode(errors="replace")
    res = jobs.JobResult(proc.returncode, 0.0, 0.0, 0.0, stdout, report, digest, 0)
    return jobs.outcome(types.SimpleNamespace(argv=args), res)


def _worst_stat(got, ref):
    """The key of the statistic that drifts most from the parent's run, as
    jobs.compare measures it (None when none drifts)."""
    def drift(key):
        have = got["stats"].get(key)
        return math.inf if have is None else jobs._rel(have, ref["stats"][key])

    key = max(ref["stats"], key=drift, default=None)
    return key if key is not None and drift(key) > 0.0 else None


def _summary(runs):
    worst = max(runs, key=lambda r: r["max_rel_drift"])
    drift = worst["max_rel_drift"]
    return {"runs": len(runs),
            "digests_equal": sum(r["digest_equal"] for r in runs),
            "exits_equal": all(r["exit_equal"] for r in runs),
            "flags_equal": all(r["flags_equal"] for r in runs),
            # strict JSON: an infinite drift (a statistic lost or leaving 0) as a string
            "max_rel_drift": drift if math.isfinite(drift) else str(drift),
            "max_drift_stat": worst["max_drift_stat"],
            "max_drift_parent": worst["max_drift_parent"]}


def main(parent, change, out_path, only=None, variants=workloads.VARIANTS):
    per_job = {}
    for (key, args, workdir, out_dir, env), (key2, _, workdir2, _, env2) in zip(
            pinned_runs(parent, only, variants), pinned_runs(change, only, variants),
            strict=True):
        assert key == key2, (key, key2)
        ref = run_outcome(args, workdir, out_dir, env)
        got = run_outcome(args, workdir2, out_dir, env2)
        ok, drift, digest_changed = jobs.compare(got, ref)
        stat = _worst_stat(got, ref)
        per_job.setdefault(key.rsplit("/", 1)[0], []).append({
            "ok": ok,
            "digest_equal": not digest_changed,
            "exit_equal": got["exit"] == ref["exit"],
            "flags_equal": got["flags"] == ref["flags"] and got.get("line") == ref.get("line"),
            "max_rel_drift": drift,
            "max_drift_stat": stat,
            "max_drift_parent": None if stat is None else ref["stats"][stat]})
    table = {job: _summary(runs) for job, runs in per_job.items()}
    total = _summary([r for runs in per_job.values() for r in runs])
    with open(out_path, "w") as fh:
        json.dump({"per_job": table, "total": total}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for job, s in [*table.items(), ("total", total)]:
        print(f"{job:45s} {s['digests_equal']:3d}/{s['runs']} digests equal"
              f"  exits equal {s['exits_equal']}  flags equal {s['flags_equal']}"
              f"  max drift {s['max_rel_drift']}"
              + (f" ({s['max_drift_stat']} = {s['max_drift_parent']!r} at the parent)"
                 if s["max_drift_stat"] else ""))
    return 0 if all(r["ok"] for runs in per_job.values() for r in runs) else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out")
    add_run_filters(parser)
    opts = parser.parse_args()
    sys.exit(main(opts.parent, opts.change, opts.out, opts.workload, opts.variants))
