"""Running one job as a child process and checking what it wrote."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import threading
import time
from dataclasses import dataclass

# BLAS/OpenMP thread caps are removed so every job runs with the default a
# user gets; the benchmark measures that default, not a pinned one.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
JOB_TIMEOUT_S = 60.0
STAT_RTOL = 1e-9
# Fields of a report's "result" that are inputs echoed back or free text;
# every other number is a statistic checked against the reference.
_SKIP_KEYS = {"samples", "params", "notes"}
_VERDICT_KEYS = {"verdict", "compact_verdict"}


def job_env(root):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


@dataclass
class JobResult:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    report: dict | None
    digest: str | None
    out_bytes: int


def run_job(argv_prefix, job, workdir, env):
    """Run one job to completion; time it from outside with wait4."""
    out_dir = os.path.join("out", job.key)
    argv = [*argv_prefix, *job.argv, "--config", f"{job.key}.json",
            "--out", out_dir, "--deterministic"]
    abs_out = os.path.join(workdir, out_dir)
    for name in ("report.json", "samples.csv"):
        path = os.path.join(abs_out, name)
        if os.path.exists(path):
            os.remove(path)
    log_path = os.path.join(workdir, f"{job.key}.log")
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, errors="replace") as fh:
        stdout = fh.read()
    report, digest, out_bytes = None, None, 0
    report_path = os.path.join(abs_out, "report.json")
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        try:
            report = json.loads(raw)
        except ValueError:
            report = None
        for name in ("report.json", "samples.csv"):
            path = os.path.join(abs_out, name)
            if os.path.exists(path):
                out_bytes += os.path.getsize(path)
    return JobResult(proc.returncode, wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     stdout, report, digest, out_bytes)


def _walk(node, path, flags, stats):
    if isinstance(node, dict):
        for k, v in node.items():
            if k in _SKIP_KEYS:
                continue
            _walk(v, f"{path}.{k}" if path else k, flags, stats)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _walk(v, f"{path}[{i}]", flags, stats)
    elif isinstance(node, bool):
        flags[path] = node
    elif isinstance(node, (int, float)):
        stats[path] = float(node)
    elif isinstance(node, str) and path.rsplit(".", 1)[-1] in _VERDICT_KEYS:
        flags[path] = node


def outcome(job, res):
    """What a job decided: exit code, PASS/FAIL, verdict flags, statistics."""
    flags, stats = {}, {}
    if isinstance(res.report, dict):
        _walk(res.report.get("result"), "", flags, stats)
    out = {"exit": res.exit, "flags": flags, "stats": stats, "sha256": res.digest}
    if job.argv[0] == "verify":
        out["line"] = "PASS" if f"verify {job.argv[1]}: PASS" in res.stdout else "FAIL"
    return out


def _rel(x, ref):
    if x == ref or (math.isnan(x) and math.isnan(ref)):
        return 0.0
    if ref == 0.0 or math.isinf(ref) or math.isinf(x):
        return math.inf
    return abs(x - ref) / abs(ref)


def compare(got, ref):
    """(ok, max relative drift, digest changed) of one job against its reference."""
    ok = got["exit"] == ref["exit"] and got.get("line") == ref.get("line")
    for key, want in ref["flags"].items():
        ok = ok and got["flags"].get(key) == want
    drift = 0.0
    for key, want in ref["stats"].items():
        have = got["stats"].get(key)
        d = math.inf if have is None else _rel(have, want)
        drift = max(drift, d)
    ok = ok and drift <= STAT_RTOL
    return ok, drift, got["sha256"] != ref["sha256"]


def expectation_errors(job, got):
    """Designed expectations of a job that its outcome breaks."""
    errors = []
    for key, want in job.expect.items():
        have = got["exit"] if key == "exit" else got["flags"].get(key)
        if have != want:
            errors.append(f"{job.ref_key}: {key} = {have!r}, designed {want!r}")
    return errors

