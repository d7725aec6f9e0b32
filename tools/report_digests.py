"""Digest every pinned benchmark run of a source tree, to check that two trees
write the same reports byte for byte.

    python tools/report_digests.py TREE OUT.json [--workload NAME] [--variants N]

Writes the inputs of every variant of every job of both benchmark workloads
(--workload keeps one workload, --variants the first N variants of each job)
with perfbench/workloads.py (imported, not changed), runs each as
`python -m bergman ... --deterministic` with TREE/src on the path, and stores
one SHA-256 per run over its exit code, stdout, stderr, report.json and
samples.csv, keyed "workload/job/variant".  Two trees ran the same when
their OUT files are equal (`diff A.json B.json`).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # read perfbench/, write nothing into it
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402


def run_digest(argv, workdir, out_dir, env):
    """(SHA-256, completed process) of one run: the digest spans its exit code,
    output streams and report files; each part is length-prefixed, and a
    missing file hashes apart from an empty one."""
    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True)
    parts = [str(proc.returncode).encode(), proc.stdout, proc.stderr]
    for name in ("report.json", "samples.csv"):
        path = os.path.join(workdir, out_dir, name)
        if not os.path.exists(path):
            parts.append(None)
            continue
        with open(path, "rb") as fh:
            parts.append(fh.read())
    h = hashlib.sha256()
    for part in parts:
        h.update(b"missing" if part is None else len(part).to_bytes(8, "little") + part)
    return h.hexdigest(), proc


def pinned_runs(tree, only=None, variants=workloads.VARIANTS):
    """Yield (key, args, workdir, out_dir, env) for every pinned run, keyed
    "workload/job/variant": run `python -m bergman *args` in workdir with env
    (TREE/src on the path), and it writes its reports to out_dir.  A
    workload variant's inputs live until its last run has been yielded.
    only names one workload to run (default: both); variants runs the
    first variants of each job (default: all)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            if only is not None and workload != only:
                continue
            keys = workloads.job_keys(workload)
            for v in range(variants):
                workdir = os.path.join(tmp, f"{workload}-{v}")
                for job in workloads.write_inputs(workload, dict.fromkeys(keys, v), workdir):
                    out_dir = os.path.join("out", job.key)
                    args = [*job.argv, "--config", f"{job.key}.json", "--out", out_dir,
                            "--deterministic"]
                    yield f"{workload}/{job.ref_key}", args, workdir, out_dir, env
                shutil.rmtree(workdir)  # the cloud CSV alone is about 17 MB


def add_run_filters(parser):
    """The --workload and --variants options, which pinned_runs takes."""
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run this workload's jobs only (default: both)")
    parser.add_argument("--variants", type=int, default=workloads.VARIANTS,
                        choices=range(1, workloads.VARIANTS + 1), metavar="N",
                        help="run the first N variants of each job (default: all "
                             f"{workloads.VARIANTS})")


def main(tree, out_path, only=None, variants=workloads.VARIANTS):
    digests = {}
    for key, args, workdir, out_dir, env in pinned_runs(tree, only, variants):
        argv = [sys.executable, "-m", "bergman", *args]
        digests[key], _ = run_digest(argv, workdir, out_dir, env)
    with open(out_path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} runs digested into {out_path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree")
    parser.add_argument("out")
    add_run_filters(parser)
    opts = parser.parse_args()
    main(opts.tree, opts.out, opts.workload, opts.variants)
