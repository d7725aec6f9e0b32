"""Digest every pinned benchmark run of a source tree, to check that two trees
write the same reports byte for byte.

    python tools/report_digests.py TREE OUT.json

Writes the inputs of every variant of every job of both benchmark workloads
with perfbench/workloads.py (imported, not changed), runs each as
`python -m bergman ... --deterministic` with TREE/src on the path, and stores
one SHA-256 per run over its exit code, stdout, stderr, report.json and
samples.csv, keyed "workload/job/variant".  Two trees ran the same when
their OUT files are equal (`diff A.json B.json`).
"""

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
    """SHA-256 over one run's exit code, output streams and report files; each
    part is length-prefixed, and a missing file hashes apart from an empty one."""
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
    return h.hexdigest()


def main(tree, out_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            keys = workloads.job_keys(workload)
            for v in range(workloads.VARIANTS):
                workdir = os.path.join(tmp, f"{workload}-{v}")
                for job in workloads.write_inputs(workload, dict.fromkeys(keys, v), workdir):
                    out_dir = os.path.join("out", job.key)
                    argv = [sys.executable, "-m", "bergman", *job.argv, "--config",
                            f"{job.key}.json", "--out", out_dir, "--deterministic"]
                    digests[f"{workload}/{job.ref_key}"] = run_digest(argv, workdir, out_dir, env)
                shutil.rmtree(workdir)  # the cloud CSV alone is about 17 MB
    with open(out_path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} runs digested into {out_path}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/report_digests.py TREE OUT.json")
    main(*sys.argv[1:])
