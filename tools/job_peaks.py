"""Peak resident memory, CPU and wall time of every pinned benchmark run of a source tree.

    python tools/job_peaks.py TREE OUT.json [--workload NAME] [--variants N]

Runs the pinned runs of report_digests.py (every variant of every job of both
benchmark workloads; --workload keeps one workload, --variants the first N
variants of each job) as `python -m bergman ... --deterministic` with TREE/src
on the path, each under a bootstrap that runs the CLI entry the way
`python -m bergman` does and reads the process's VmHWM (its peak resident
set, from /proc/self/status, so Linux only) at interpreter exit.  VmHWM
starts afresh at exec, so unlike the benchmark's ru_maxrss, which survives
exec, it holds none of the launching process's memory.  Each run's CPU time
is user plus system time from os.wait4, as the benchmark measures it, and
its wall time runs from the start of the process to its reaping.  The two
differ most where a job runs threads (the Berezin sweep).  The traced benchmark
runs call `bergman.cli.main` and bypass the entry, so this tool, not the
trace, attributes CPU spent at process start-up.  OUT holds each run's
`vmhwm_mb`, `cpu_s` and `wall_s` keyed "workload/job/variant", and per job
"workload/job" the median and range of each over its variants, and it
prints that summary as a table, one job per row.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # read perfbench/, write nothing into it
from report_digests import add_run_filters, pinned_runs  # noqa: E402
import workloads  # noqa: E402  (perfbench/, put on the path by report_digests)

# python -c BOOTSTRAP PEAK_FILE ARGS...: run `python -m bergman ARGS...` in
# this process and write its VmHWM in kB to PEAK_FILE at exit
BOOTSTRAP = """
import atexit, runpy, sys

def _write_peak(path=sys.argv[1]):
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kb)

atexit.register(_write_peak)
sys.argv = ["bergman", *sys.argv[2:]]
runpy.run_module("bergman", run_name="__main__", alter_sys=True)
"""


def run_peak(args, workdir, env, peak_file):
    """(VmHWM in MB, CPU seconds, wall seconds) of `python -m bergman *args`
    run in workdir."""
    if os.path.exists(peak_file):
        os.remove(peak_file)  # a run that dies before exit leaves none
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", BOOTSTRAP, peak_file, *args], cwd=workdir,
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(peak_file) as fh:
        return int(fh.read()) / 1024.0, usage.ru_utime + usage.ru_stime, wall


def _spread(values):
    return {"median": round(statistics.median(values), 3),
            "range": [round(min(values), 3), round(max(values), 3)]}


def main(tree, out_path, only=None, variants=workloads.VARIANTS):
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        peak_file = os.path.join(tmp, "vmhwm")
        for key, args, workdir, _, env in pinned_runs(tree, only, variants):
            mb, cpu, wall = run_peak(args, workdir, env, peak_file)
            runs[key] = {"vmhwm_mb": mb, "cpu_s": cpu, "wall_s": wall}
    per_job = {}
    for key, run in runs.items():
        per_job.setdefault(key.rsplit("/", 1)[0], []).append(run)
    summary = {job: {name: _spread([r[name] for r in v])
                     for name in ("vmhwm_mb", "cpu_s", "wall_s")}
               for job, v in per_job.items()}
    with open(out_path, "w") as fh:
        json.dump({"per_job": summary, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{'job':45s} {'VmHWM MB':>8s} {'range':>13s}  {'CPU s':>7s} {'range':>15s}"
          f"  {'wall s':>7s} {'range':>15s}")
    for job, s in summary.items():
        mb, cpu, wall = s["vmhwm_mb"], s["cpu_s"], s["wall_s"]
        print(f"{job:45s} {mb['median']:8.1f} [{mb['range'][0]:5.1f}, {mb['range'][1]:5.1f}]"
              f"  {cpu['median']:7.3f} [{cpu['range'][0]:6.3f}, {cpu['range'][1]:6.3f}]"
              f"  {wall['median']:7.3f} [{wall['range'][0]:6.3f}, {wall['range'][1]:6.3f}]")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree")
    parser.add_argument("out")
    add_run_filters(parser)
    opts = parser.parse_args()
    main(opts.tree, opts.out, opts.workload, opts.variants)
