"""Command-line interface: experiment orchestration and report emission.

Every run reads one JSON config (see config.py for the schema), writes
report.json (and samples.csv when the run produces per-basepoint values)
under --out, and prints a one-line summary.  Exit codes: 0 success or
verification pass, 1 verification failure, 2 invalid config or usage,
3 resource overrun.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import criteria, geometry, measures, spaces, weights
from .config import ExperimentConfig
from .errors import (
    BergmanError,
    ConfigError,
    ResourceLimitError,
    UnboundedNormError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


def _write_report(args, command, result):
    payload = {
        "schema": 1,
        "command": command,
        "config": getattr(args, "_config_raw", None),
        "result": result,
    }
    if not args.deterministic:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "report.json")
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        # a NaN or infinity is not JSON: leave no half-written report behind
        os.remove(path)
        raise BergmanError(f"{command}: the result is not finite ({exc}); "
                           "no report written") from exc
    return path


def _write_samples(args, rows):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "samples.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "value"])
        for re_, im_, val in rows:
            writer.writerow([repr(re_), repr(im_), repr(val)])
    return path


def _load(args):
    cfg = ExperimentConfig.load(args.config)
    args._config_raw = cfg.raw
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    cfg = _load(args)
    w = cfg.weight()
    report = weights.classify(w, mesh=args.mesh)
    _write_report(args, "classify-weight", report.to_json())
    print(
        f"{w.name}: doubling={report.doubling} "
        f"exponents=({report.exponent_lower:.4f}, {report.exponent_upper:.4f}) "
        f"dhat={report.dhat_constant:.4g}"
    )
    return EXIT_OK


def cmd_norm(args):
    cfg = _load(args)
    w = cfg.weight()
    f = cfg.function()
    vals = {}
    for lvl in (cfg.grid_level, cfg.grid_level + 2):
        vals[lvl] = spaces.bergman_norm(f, cfg.p, w, cfg.grid(lvl))
    base, fine = vals[cfg.grid_level], vals[cfg.grid_level + 2]
    change = abs(fine - base) / fine if fine > 0 else 0.0
    if change >= 0.25:
        raise UnboundedNormError(
            f"norm grew by {change:.1%} under refinement "
            f"({base:.6g} -> {fine:.6g}); the integral looks divergent"
        )
    result = {
        "norm": fine,
        "p": cfg.p,
        "weight": w.name,
        "levels": {str(k): v for k, v in vals.items()},
        "refinement_change": change,
        "stable": change < 0.01,
    }
    _write_report(args, "norm", result)
    print(f"norm = {fine:.10g} (refinement change {change:.2e})")
    return EXIT_OK


def cmd_criterion(args):
    cfg = _load(args)
    w = cfg.weight()
    which = args.which
    if which == "embedding-sup":
        mu = cfg.measure()
        report = criteria.embedding_sup_criterion(
            cfg.p, cfg.q, cfg.n, w, mu, r=cfg.lattice_r)
    elif which == "embedding-ls":
        mu = cfg.measure()
        report = criteria.embedding_ls_criterion(
            cfg.p, cfg.q, cfg.n, w, mu, r=cfg.lattice_r,
            level=max(cfg.grid_level, 12))
    elif which == "carleson":
        op = cfg.operator()
        nu = cfg.measure()
        report = criteria.op_pushforward_criterion(
            op, cfg.p, cfg.q, w, nu, r=cfg.lattice_r, level=cfg.grid_level)
    elif which == "berezin":
        op = cfg.operator()
        grid = cfg.grid()
        nu = measures.RadialDensityMeasure.from_weight(cfg.target_weight(), grid)
        report = criteria.berezin_criterion(op, cfg.p, cfg.q, w, nu, cfg.gamma, grid=grid)
    elif which == "hinf":
        op = cfg.operator()
        report = criteria.hinf_criterion(
            op, cfg.p, w, grid=cfg.grid())
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown criterion {which!r}")
    result = report.to_json()
    _write_report(args, f"criterion {which}", result)
    _write_samples(args, result["samples"])
    print(
        f"{report.criterion}: statistic={report.statistic:.6g} "
        f"verdict={report.verdict} compact={report.compact_verdict}"
    )
    return EXIT_OK


def _verify_pseudodisc(cfg):
    rng = cfg.rng()
    trials = 1000
    a = np.sqrt(rng.uniform(0, 1, trials)) * 0.995 * np.exp(2j * np.pi * rng.uniform(0, 1, trials))
    r = rng.uniform(0.05, 0.95, trials)
    theta = np.arange(64) * (2 * np.pi / 64)
    worst = 0.0
    for ai, ri in zip(a, r):
        disc = geometry.pseudo_disc(ai, ri)
        boundary = disc.euclid_center + disc.euclid_radius * np.exp(1j * theta)
        worst = max(worst, float(np.max(np.abs(geometry.rho(ai, boundary) - ri))))
    return {"max_deviation": worst, "trials": trials}, worst < 1e-9


def _verify_pushforward(cfg):
    rng = cfg.rng()
    n_atoms = 20000
    pts = np.sqrt(rng.uniform(0, 1, n_atoms)) * 0.999 * np.exp(2j * np.pi * rng.uniform(0, 1, n_atoms))
    mu = measures.AtomicMeasure(pts, rng.uniform(0.0, 1.0, n_atoms))
    maps = {
        "identity": spaces.Identity(),
        "square": spaces.PowerMap(2),
        "moebius": spaces.Moebius(0.3),
    }
    def h(z):
        return 1.0 + np.abs(z) ** 2
    def g(z):
        return (z + 0.3) ** 3
    worst = 0.0
    for phi in maps.values():
        pf = measures.pushforward(phi, h, mu)
        lhs = pf.integrate(g)
        rhs = np.sum(g(phi(pts)) * h(pts) * mu.masses).item()
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return {"max_relative_residual": worst, "atoms": n_atoms}, worst < 1e-12


def _random_polynomials(rng, count, max_degree=20):
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        out.append(spaces.Polynomial(coeffs))
    return out


def _verify_norm_equiv(cfg):
    w = cfg.weight()
    rng = cfg.rng()
    polys = _random_polynomials(rng, 50)
    ratios = {}
    for lvl in (cfg.grid_level, cfg.grid_level + 2):
        ratios[lvl] = criteria.norm_equivalence_ratios(polys, cfg.p, w, cfg.grid(lvl))
    base, fine = ratios[cfg.grid_level], ratios[cfg.grid_level + 2]
    change = float(np.max(np.abs(fine - base) / fine))
    spread = float(np.max(fine) / np.min(fine))
    result = {
        "ratio_low": float(np.min(fine)),
        "ratio_high": float(np.max(fine)),
        "spread": spread,
        "refinement_change": change,
    }
    return result, change < 0.01 and spread < 1.25


def _verify_lemma21(cfg):
    w = cfg.weight()
    rng = cfg.rng()
    gamma = weights.gamma_exponent(w, cfg.p)
    family = [spaces.test_function(a, gamma, cfg.p, w)
              for a in (0.0, 0.5, 0.5j, 0.9, 0.99 * 1j)]
    family += _random_polynomials(rng, 20)
    levels = (cfg.grid_level, cfg.grid_level + 2)
    orders = (0, 1, 2)
    # per order, the largest bound over the family at each level
    base, fine = (np.max(criteria.derivative_bound_sup(family, orders, cfg.p, w, cfg.grid(lvl)),
                         axis=0) for lvl in levels)
    worst_change = float(np.max(np.abs(fine - base) / fine))
    overall = float(np.max(fine))
    result = {"sup_constant": overall, "refinement_change": worst_change}
    return result, bool(np.isfinite(overall)) and worst_change < 0.10


def _verify_gamma(cfg):
    w = cfg.weight()
    gamma = cfg.gamma if cfg.gamma is not None else weights.gamma_exponent(w, cfg.p)
    passed, worst = criteria.verify_gamma(w, cfg.p, gamma,
                                          grid=cfg.grid(max(cfg.grid_level, 13)))
    return {"gamma": gamma, "worst_constant": worst, "passed": passed}, passed


def cmd_verify(args):
    cfg = _load(args)
    runner = {
        "gamma": _verify_gamma,
        "lemma21": _verify_lemma21,
        "norm-equiv": _verify_norm_equiv,
        "pseudodisc": _verify_pseudodisc,
        "pushforward": _verify_pushforward,
    }[args.which]
    result, passed = runner(cfg)
    result["passed"] = bool(passed)
    _write_report(args, f"verify {args.which}", result)
    detail = {k: v for k, v in result.items() if k != "passed"}
    print(f"verify {args.which}: {'PASS' if passed else 'FAIL'} {json.dumps(detail, sort_keys=True)}")
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", default="out", help="directory for report files")
    common.add_argument("--deterministic", action="store_true",
                        help="omit timestamps so reports are byte-stable")

    parser = argparse.ArgumentParser(
        prog="bergman",
        description="Carleson-type criteria for weighted Bergman spaces on the disc",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify-weight", parents=[common],
                           help="doubling-class diagnostics for the config weight")
    p_cls.add_argument("--mesh", type=int, default=256)
    p_cls.set_defaults(fn=cmd_classify)

    p_norm = sub.add_parser("norm", parents=[common],
                            help="Bergman norm of the config function")
    p_norm.set_defaults(fn=cmd_norm)

    p_crit = sub.add_parser("criterion", parents=[common],
                            help="evaluate a boundedness/compactness criterion")
    p_crit.add_argument("which", choices=["embedding-sup", "embedding-ls",
                                          "carleson", "berezin", "hinf"])
    p_crit.set_defaults(fn=cmd_criterion)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a verification suite")
    p_ver.add_argument("which", choices=["gamma", "lemma21", "norm-equiv",
                                         "pseudodisc", "pushforward"])
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(json.dumps({"error": exc.payload()}, sort_keys=True))
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(json.dumps({"error": {"type": "resource", "message": str(exc)}},
                         sort_keys=True))
        return EXIT_RESOURCE
    except BergmanError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True))
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
