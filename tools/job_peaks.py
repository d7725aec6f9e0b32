"""Peak resident memory of every pinned benchmark run of a source tree.

    python tools/job_peaks.py TREE OUT.json

Runs the pinned runs of report_digests.py (every variant of every job of both
benchmark workloads) as `python -m bergman ... --deterministic` with TREE/src
on the path, each under a bootstrap that reads the process's VmHWM (its peak
resident set, from /proc/self/status, so Linux only) at interpreter exit.
VmHWM starts afresh at exec, so unlike the benchmark's ru_maxrss, which
survives exec, it holds none of the launching process's memory.  OUT holds
each run's peak in MB keyed "workload/job/variant", and per job
"workload/job" the median and range over its variants.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # read perfbench/, write nothing into it
from report_digests import pinned_runs  # noqa: E402

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
    """VmHWM in MB of `python -m bergman *args` run in workdir."""
    if os.path.exists(peak_file):
        os.remove(peak_file)  # a run that dies before exit leaves none
    subprocess.run([sys.executable, "-c", BOOTSTRAP, peak_file, *args], cwd=workdir,
                   env=env, capture_output=True, check=False)
    with open(peak_file) as fh:
        return int(fh.read()) / 1024.0


def main(tree, out_path):
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        peak_file = os.path.join(tmp, "vmhwm")
        for key, args, workdir, _, env in pinned_runs(tree):
            runs[key] = run_peak(args, workdir, env, peak_file)
    per_job = {}
    for key, mb in runs.items():
        per_job.setdefault(key.rsplit("/", 1)[0], []).append(mb)
    summary = {job: {"median": round(statistics.median(v), 3),
                     "range": [round(min(v), 3), round(max(v), 3)]}
               for job, v in per_job.items()}
    with open(out_path, "w") as fh:
        json.dump({"per_job": summary, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for job, s in summary.items():
        print(f"{job:45s} {s['median']:8.1f} MB  [{s['range'][0]:.1f}, {s['range'][1]:.1f}]")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/job_peaks.py TREE OUT.json")
    main(*sys.argv[1:])
