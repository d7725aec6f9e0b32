"""Workload definitions: the jobs of each workload and their seeded inputs.

A job is one `python -m bergman <subcommand> --config <file> --deterministic`
process.  Its config is drawn from a pinned family of VARIANTS inputs per job:
variant v of job j comes from np.random.default_rng([j's key, v]), and the run
seed picks one variant per job.  Every variant has a stored reference
(reference.json), so any seed is checked exactly, and the variants of a job
differ in values but not in problem size, so passes cost the same on every
seed and per-layer counts repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

VARIANTS = 16

# Atom cloud of the atomic-cloud workload.  Gaps are log-uniform in
# [CLOUD_MIN_GAP, 0.9], angles cluster about one ray with spread proportional
# to the gap, and atom masses are gap^CLOUD_MASS_EXP.  Against the power(1)
# weight the boundedness boundary sits at exponent 3 (w(S(z)) ~ gap^3 while a
# pseudohyperbolic disc holds a gap-independent number of atoms), so 4.5 keeps
# every variant well inside the bounded / vanishing-tail side.
CLOUD_ATOMS = 300_000
CLOUD_MIN_GAP = 1e-4
CLOUD_MASS_EXP = 4.5
CLOUD_RAY = 0.7
CLOUD_FILE = "cloud.csv"


@dataclass
class Job:
    """One CLI invocation with its config and designed expectations."""

    key: str
    argv: list
    config: dict
    variant: int
    # designed outcome: exit code plus any verdict fields that must hold on
    # every variant (checked against reference.json when it is made)
    expect: dict = field(default_factory=dict)

    @property
    def ref_key(self):
        return f"{self.key}/{self.variant}"


def _rng(key, variant):
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.default_rng([int.from_bytes(digest[:8], "little"), variant])


def _poly(rng, degree):
    return [[round(float(a), 6), round(float(b), 6)]
            for a, b in rng.normal(size=(degree + 1, 2))]


def _moebius(rng, radius=0.35):
    c = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return {"kind": "moebius", "c": [round(c.real, 6), round(c.imag, 6)]}


BOUNDED = {"exit": 0, "verdict": "bounded-consistent",
           "compact_verdict": "vanishing-tail"}
PASS = {"exit": 0, "passed": True}


# ---------------------------------------------------------------------------
# radial, verify jobs: per-node radial evaluation on log_power(1,2)
# ---------------------------------------------------------------------------

_LOG_POWER = {"kind": "log_power", "alpha": 1.0, "b": 2.0}


def _radial_verify():
    def lemma21(rng):
        return {"p": 2.0, "grid_level": 6, "seed": int(rng.integers(1 << 30)),
                "weight": _LOG_POWER}

    def norm_equiv(rng):
        return {"p": 2.0, "grid_level": 6, "seed": int(rng.integers(1 << 30)),
                "weight": _LOG_POWER}

    def gamma(rng):
        b = round(float(rng.uniform(1.5, 2.5)), 4)
        return {"p": 2.0, "grid_level": 6,
                "weight": {"kind": "log_power", "alpha": 1.0, "b": b}}

    def norm(rng):
        return {"p": 2.0, "grid_level": 6, "weight": _LOG_POWER,
                "function": {"kind": "poly", "coeffs": _poly(rng, 5)}}

    return [
        ("verify-lemma21", ["verify", "lemma21"], lemma21, PASS),
        ("verify-norm-equiv", ["verify", "norm-equiv"], norm_equiv, PASS),
        ("verify-gamma", ["verify", "gamma"], gamma, PASS),
        ("norm", ["norm"], norm, {"exit": 0, "stable": True}),
    ]


# ---------------------------------------------------------------------------
# radial, criterion jobs: the five criterion kinds on radial data
# ---------------------------------------------------------------------------

_POWER1 = {"kind": "power", "alpha": 1.0}


def _criteria_radial():
    # Against power(1), mu(Delta(z,r)) ~ gap^(2+beta) and w(S(z)) ~ gap^3, so
    # the statistics decay like gap^(beta-1): beta >= 2.5 keeps every halving
    # well under the 0.70 vanishing-tail threshold.
    def beta(rng):
        return round(float(rng.uniform(2.5, 3.5)), 4)

    def emb_sup(rng):
        return {"p": 2.0, "q": 2.0, "n": 0, "grid_level": 11, "weight": _POWER1,
                "measure": {"kind": "power_density", "beta": beta(rng)}}

    def emb_ls(rng):
        return {"p": 2.0, "q": 1.0, "n": 0, "grid_level": 11, "weight": _POWER1,
                "measure": {"kind": "power_density", "beta": beta(rng)}}

    def carleson(rng):
        return {"p": 2.0, "q": 1.0, "grid_level": 11, "weight": _POWER1,
                "measure": {"kind": "power_density", "beta": beta(rng)},
                "operator": {"phi": _moebius(rng),
                             "u": {"kind": "poly", "coeffs": _poly(rng, 2)},
                             "n": 0}}

    # The Moebius map moves nu = (1-|z|)^alpha dA to a measure of the same
    # order, so the Berezin statistic decays like gap^(alpha-3): alpha >= 4.5
    # halves it at least 2^1.5-fold per dyadic level (vanishing-tail).
    def berezin(weight, target):
        def make(rng):
            return {"p": 2.0, "q": 2.0, "grid_level": 11, "weight": weight,
                    "target_weight": dict(target,
                                          alpha=round(float(rng.uniform(4.5, 5.5)), 4)),
                    "operator": {"phi": _moebius(rng),
                                 "u": {"kind": "poly", "coeffs": _poly(rng, 2)},
                                 "n": 1}}
        return make

    # |phi| <= r < 0.75 keeps the image within two dyadic bands of |phi|, so
    # the verdict is a plain maximum and the image is compactly contained.
    def hinf(rng):
        return {"p": 2.0, "grid_level": 11, "weight": _POWER1,
                "operator": {"phi": {"kind": "scale",
                                     "r": round(float(rng.uniform(0.5, 0.72)), 4)},
                             "u": {"kind": "poly", "coeffs": _poly(rng, 3)},
                             "n": 1}}

    return [
        ("criterion-embedding-sup", ["criterion", "embedding-sup"], emb_sup, BOUNDED),
        ("criterion-embedding-ls", ["criterion", "embedding-ls"], emb_ls, BOUNDED),
        ("criterion-carleson", ["criterion", "carleson"], carleson, BOUNDED),
        ("criterion-berezin-power", ["criterion", "berezin"],
         berezin(_POWER1, {"kind": "power"}), BOUNDED),
        ("criterion-berezin-log-power", ["criterion", "berezin"],
         berezin(_LOG_POWER, {"kind": "log_power", "b": 1.0}), BOUNDED),
        ("criterion-hinf", ["criterion", "hinf"], hinf, BOUNDED),
    ]


# ---------------------------------------------------------------------------
# atomic-cloud: a non-radial atom cloud plus many short jobs
# ---------------------------------------------------------------------------

def _atomic_cloud():
    cloud = {"kind": "atoms_csv", "path": CLOUD_FILE}

    def emb_sup(rng):
        return {"p": 2.0, "q": 2.0, "n": 0, "grid_level": 10, "weight": _POWER1,
                "measure": cloud}

    def emb_ls(rng):
        return {"p": 2.0, "q": 1.0, "n": 0, "grid_level": 10, "weight": _POWER1,
                "measure": cloud}

    def carleson(rng):
        # a fixed map keeps the pushforward's deepest gap, and with it the
        # evaluation depth, the same on every variant
        return {"p": 2.0, "q": 1.0, "grid_level": 10, "weight": _POWER1,
                "measure": cloud,
                "operator": {"phi": {"kind": "moebius", "c": [0.3, 0.1]},
                             "u": {"kind": "poly", "coeffs": _poly(rng, 2)},
                             "n": 0}}

    def seeded(rng):
        return {"p": 2.0, "q": 2.0, "seed": int(rng.integers(1 << 30))}

    def cls_power(rng):
        return {"weight": {"kind": "power",
                           "alpha": round(float(rng.uniform(-0.5, 2.0)), 4)}}

    def cls_log_power(rng):
        return {"weight": {"kind": "log_power",
                           "alpha": round(float(rng.uniform(0.0, 2.0)), 4),
                           "b": round(float(rng.uniform(0.5, 2.0)), 4)}}

    def cls_table(rng):
        r = [0.0, 0.5, 0.9, 0.99, 1.0]
        steps = rng.uniform(0.3, 0.7, size=3)
        w = [1.0, *np.round(np.cumprod(steps), 6).tolist(), 0.0]
        return {"weight": {"kind": "table", "r": r, "w": w}}

    # The cloud jobs take the cloud's variant (one cloud per run).
    return [
        ("cloud-embedding-sup", ["criterion", "embedding-sup"], emb_sup, BOUNDED),
        ("cloud-embedding-ls", ["criterion", "embedding-ls"], emb_ls, BOUNDED),
        ("cloud-carleson", ["criterion", "carleson"], carleson, BOUNDED),
        ("verify-pushforward", ["verify", "pushforward"], seeded, PASS),
        ("verify-pseudodisc", ["verify", "pseudodisc"], seeded, PASS),
        ("classify-power", ["classify-weight"], cls_power, {"exit": 0}),
        ("classify-log-power", ["classify-weight"], cls_log_power, {"exit": 0}),
        ("classify-table", ["classify-weight"], cls_table, {"exit": 0}),
    ]


def _radial():
    return _radial_verify() + _criteria_radial()


# workload -> (job table, warm-up job)
WORKLOADS = {
    "radial": (_radial, "norm"),
    "atomic-cloud": (_atomic_cloud, "classify-power"),
}
CLOUD_JOBS = ("cloud-embedding-sup", "cloud-embedding-ls", "cloud-carleson")


def uses_cloud(workload):
    return workload == "atomic-cloud"


def jobs_for(workload, variants):
    """The workload's jobs, variant `variants[key]` of each."""
    table, _ = WORKLOADS[workload]
    jobs = []
    for key, argv, make, expect in table():
        v = variants[key]
        cfg = {"schema": 1, **make(_rng(key, v))}
        jobs.append(Job(key, list(argv), cfg, v, dict(expect)))
    return jobs


def job_keys(workload):
    table, _ = WORKLOADS[workload]
    return [key for key, *_ in table()]


def warmup_key(workload):
    return WORKLOADS[workload][1]


def draw_variants(workload, seed):
    """Map a run seed to one variant per job (one shared cloud variant)."""
    rng = np.random.default_rng([seed, 0x6265726D])
    keys = job_keys(workload)
    picks = {k: int(v) for k, v in zip(keys, rng.integers(VARIANTS, size=len(keys)))}
    if uses_cloud(workload):
        cloud_v = int(rng.integers(VARIANTS))
        for k in CLOUD_JOBS:
            picks[k] = cloud_v
    return picks


def write_cloud(path, variant):
    rng = _rng("cloud", variant)
    n = CLOUD_ATOMS
    gaps = np.exp(rng.uniform(np.log(CLOUD_MIN_GAP), np.log(0.9), n))
    theta = CLOUD_RAY + gaps * rng.normal(0.0, 1.0, n)
    pts = (1.0 - gaps) * np.exp(1j * theta)
    masses = gaps ** CLOUD_MASS_EXP * rng.uniform(0.5, 1.5, n)
    with open(path, "w") as fh:
        fh.write("re,im,mass\n")
        np.savetxt(fh, np.column_stack([pts.real, pts.imag, masses]),
                   delimiter=",", fmt="%.17g")


def write_inputs(workload, variants, workdir):
    """Write every config (and the atom cloud) of one pass into workdir."""
    os.makedirs(workdir, exist_ok=True)
    jobs = jobs_for(workload, variants)
    for job in jobs:
        with open(os.path.join(workdir, f"{job.key}.json"), "w") as fh:
            json.dump(job.config, fh, indent=1, sort_keys=True)
    if uses_cloud(workload):
        write_cloud(os.path.join(workdir, CLOUD_FILE), variants[CLOUD_JOBS[0]])
    return jobs
