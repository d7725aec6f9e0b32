"""bergman benchmark: CLI workloads timed end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every job is a fresh
`python -m bergman ... --deterministic` process on inputs written from the
seed; jobs run one at a time (a closed loop with one client).  A pass is one
sequential run of the workload's jobs; passes repeat until the next one would
overrun --seconds (at least MIN_PASSES), and each metric is the median over
passes.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, cpu_s, peak_rss_mb.
--trace 1 alternates untraced and traced passes (launcher.py) and prints the
per-layer metrics, the tracing overhead and the checks.  The last line of
stdout is the result JSON; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time

import numpy as np

import jobs as jobmod
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 7
MIN_PASSES = 3

# (metric, unit) of the traced run, in print order
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.self_s", "s"), ("cli.report_bytes", "B"),
    ("cli.reports_changed", "count"), ("config.self_s", "s"),
    ("weights.tail.self_s", "s"), ("weights.tail.gaps", "count"),
    ("weights.tail.ns_per_gap", "ns"), ("weights.tail.distinct_ratio", "ratio"),
    ("weights.density.self_s", "s"), ("weights.density.points", "count"),
    ("weights.density.distinct_ratio", "ratio"),
    ("weights.build.self_s", "s"), ("weights.build.calls", "count"),
    ("weights.classify.self_s", "s"), ("weights.gamma_for.verify_calls", "count"),
    ("geometry.lattice.self_s", "s"), ("geometry.lattice.points", "count"),
    ("geometry.pseudo_disc.self_s", "s"),
    ("measures.grid.self_s", "s"), ("measures.grid.builds", "count"),
    ("measures.grid.nodes", "count"), ("measures.grid.ns_per_node", "ns"),
    ("measures.grid.distinct_ratio", "ratio"),
    ("measures.pd_radial.self_s", "s"), ("measures.pd_radial.centers", "count"),
    ("measures.pd_radial.ns_per_center", "ns"),
    ("measures.pd_atomic.self_s", "s"), ("measures.pd_atomic.centers", "count"),
    ("measures.pd_atomic.atoms", "count"), ("measures.pd_atomic.ns_per_center", "ns"),
    ("measures.atoms_csv.self_s", "s"), ("measures.atoms_csv.rows", "count"),
    ("measures.pushforward.self_s", "s"), ("measures.pushforward.atoms", "count"),
    ("measures.support_nodes.self_s", "s"),
    ("spaces.eval.self_s", "s"), ("spaces.eval.points", "count"),
    ("spaces.selfmap.self_s", "s"), ("spaces.selfmap.points", "count"),
    ("spaces.norm.self_s", "s"), ("spaces.norm.nodes", "count"),
    ("criteria.berezin.self_s", "s"), ("criteria.berezin.kernel_evals", "count"),
    ("criteria.berezin.ns_per_kernel_eval", "ns"),
    ("criteria.verify_gamma.self_s", "s"),
    ("criteria.verify_gamma.kernel_evals", "count"),
    ("criteria.verify_gamma.ns_per_kernel_eval", "ns"),
    ("criteria.derivative_bound.self_s", "s"),
    ("criteria.derivative_bound.calls", "count"),
    ("criteria.norm_equiv.self_s", "s"), ("criteria.embedding.self_s", "s"),
    ("criteria.hinf.self_s", "s"),
    ("check.failed_frac", "ratio"), ("check.max_rel_drift", "ratio"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
    ("trace.reports_differ", "count"),
]
# ns_per_* metric -> (self-time group, count key)
_PER_UNIT = {
    "weights.tail.ns_per_gap": ("weights.tail", "gaps"),
    "measures.grid.ns_per_node": ("measures.grid", "nodes"),
    "measures.pd_radial.ns_per_center": ("measures.pd_radial", "centers"),
    "measures.pd_atomic.ns_per_center": ("measures.pd_atomic", "centers"),
    "criteria.berezin.ns_per_kernel_eval": ("criteria.berezin", "kernel_evals"),
    "criteria.verify_gamma.ns_per_kernel_eval": ("criteria.verify_gamma", "kernel_evals"),
}
_DISTINCT = {
    "weights.tail.distinct_ratio": ("weights.tail", "distinct", "gaps"),
    "weights.density.distinct_ratio": ("weights.density", "distinct", "points"),
    "measures.grid.distinct_ratio": ("measures.grid", "kinds", "builds"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "bergman")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the record is informative; never fail a run on it
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "commit": _commit(),
            "src_sha256": _src_digest()}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Run:
    """State of one benchmark run: inputs, reference, and check tallies."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.variants = workloads.draw_variants(workload, seed)
        self.workdir = workdir
        self.env = jobmod.job_env(ROOT)
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)["jobs"]
        self.jobs = []
        self.attempted = 0
        self.failed = 0
        self.max_drift = 0.0
        self.digests = {}  # job key -> untraced report digest

    def setup(self):
        t0 = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.jobs = workloads.write_inputs(self.workload, self.variants, self.workdir)
        warm = next(j for j in self.jobs if j.key == workloads.warmup_key(self.workload))
        jobmod.run_job([sys.executable, "-m", "bergman"], warm, self.workdir, self.env)
        return time.perf_counter() - t0

    def check(self, job, res):
        """Count the job and report whether it matches its reference."""
        self.attempted += 1
        ref = self.reference.get(job.ref_key)
        got = jobmod.outcome(job, res)
        if ref is None:
            ok, drift, changed = False, float("inf"), True
        else:
            ok, drift, changed = jobmod.compare(got, ref)
        self.max_drift = max(self.max_drift, drift)
        if not ok:
            self.failed += 1
            log(f"check failed: {job.ref_key} exit={res.exit} drift={drift:.3g} "
                f"output: {res.stdout.strip()[-300:]}")
        return changed

    def run_pass(self, traced=False):
        prefix = ([sys.executable, os.path.join(HERE, "launcher.py")] if traced
                  else [sys.executable, "-m", "bergman"])
        rec = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "changed": 0,
               "differ": 0, "report_bytes": 0, "traces": []}
        for job in self.jobs:
            trace_path = os.path.join(self.workdir, f"{job.key}.trace.json")
            argv = [*prefix, trace_path] if traced else prefix
            res = jobmod.run_job(argv, job, self.workdir, self.env)
            rec["wall_s"] += res.wall_s
            rec["cpu_s"] += res.cpu_s
            rec["peak_rss_mb"] = max(rec["peak_rss_mb"], res.rss_mb)
            rec["report_bytes"] += res.out_bytes
            rec["changed"] += self.check(job, res)
            if traced:
                rec["differ"] += res.digest != self.digests.get(job.key)
                if os.path.exists(trace_path):
                    with open(trace_path) as fh:
                        rec["traces"].append(json.load(fh))
            else:
                self.digests[job.key] = res.digest
        return rec


def _layer_totals(rec):
    """Per-layer numbers of one traced pass, summed over its jobs."""
    self_s, counts = {}, {}
    imp = wall = covered = 0.0
    kinds = 0
    for tr in rec["traces"]:
        if os.path.realpath(tr["module"]) != os.path.realpath(
                os.path.join(ROOT, "src", "bergman")):
            raise SystemExit(f"traced job imported bergman from {tr['module']}")
        imp += tr["import_s"]
        wall += tr["wall_s"] - tr["tracer_s"]
        covered += tr["covered_s"]
        kinds += tr["grid_kinds"]
        for g, v in tr["self_s"].items():
            self_s[g] = self_s.get(g, 0.0) + v
        for g, c in tr["counts"].items():
            for k, v in c.items():
                counts[(g, k)] = counts.get((g, k), 0) + v
    counts[("measures.grid", "kinds")] = kinds
    return {"self_s": self_s, "counts": counts, "import_s": imp,
            "coverage": covered / wall if wall > 0 else 0.0,
            "report_bytes": rec["report_bytes"]}


def per_layer_metrics(run, plain, traced):
    layers = [_layer_totals(r) for r in traced]
    counts = layers[0]["counts"]
    for other in layers[1:]:
        if other["counts"] != counts:
            log("warning: per-layer counts differ between traced passes")

    def med_self(group):
        return statistics.median([lay["self_s"].get(group, 0.0) for lay in layers])

    out = {}
    for name, unit in PER_LAYER:
        head, _, leaf = name.rpartition(".")
        if name == "cli.import_s":
            v = statistics.median([lay["import_s"] for lay in layers])
        elif name == "cli.report_bytes":
            v = layers[0]["report_bytes"]
        elif name == "cli.reports_changed":
            v = max(r["changed"] for r in plain)
        elif leaf == "self_s":
            v = med_self(head)
        elif name in _PER_UNIT:
            group, key = _PER_UNIT[name]
            n = counts.get((group, key), 0)
            v = med_self(group) / n * 1e9 if n else 0.0
        elif name in _DISTINCT:
            group, num, den = _DISTINCT[name]
            n = counts.get((group, den), 0)
            v = counts.get((group, num), 0) / n if n else 0.0
        elif name == "check.failed_frac":
            v = run.failed / run.attempted
        elif name == "check.max_rel_drift":
            v = run.max_drift
        elif name == "trace.coverage":
            v = statistics.median([lay["coverage"] for lay in layers])
        elif name == "trace.overhead_s":
            v = (statistics.median([r["wall_s"] for r in traced])
                 - statistics.median([r["wall_s"] for r in plain]))
        elif name == "trace.reports_differ":
            v = max(r["differ"] for r in traced)
        else:
            v = counts.get((head, leaf), 0)
        out[name] = {"value": v, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for name in ("__init__.py", "__main__.py", "cli.py"):
        if not os.path.isfile(os.path.join(ROOT, "src", "bergman", name)):
            log(f"no bergman source at {os.path.join(ROOT, 'src', 'bergman')}; "
                "run from the root of a bergman checkout")
            return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    run = Run(args.workload, args.seed, workdir)
    try:
        setup = [run.setup() for _ in range(SETUPS)]
        plain, traced = [], []
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            plain.append(run.run_pass())
            if args.trace:
                traced.append(run.run_pass(traced=True))
            last = time.perf_counter() - t_pass
            elapsed = time.perf_counter() - t0
            enough = len(plain) >= (1 if args.trace else MIN_PASSES)
            if enough and elapsed + last > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if args.trace:
        metrics = per_layer_metrics(run, plain, traced)
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            metrics[key] = {"value": statistics.median(r[key] for r in plain),
                            "unit": unit}
    record = dict(environment(), workload=args.workload, seed=args.seed,
                  passes=len(plain), traced_passes=len(traced),
                  variants=run.variants)
    print(json.dumps({"env": record}, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
