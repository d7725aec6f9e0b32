"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values come from closed forms of the standard weights
(1-r)^alpha and the standard densities (1-|z|)^beta, for which every
criterion quantity has an explicit boundary exponent, plus independent
scipy quadrature for the one q<p norm value.  Divergence rates are dyadic:
a criterion profile (1-|a|)^{-m} gains the factor 2^{2m} per two halvings
of the boundary gap, which for the margin m = 0.3 used throughout is
2^0.6 ~ 1.516, checked against the 1.5 floor over two-halving steps.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from bergman import (
    AtomicMeasure,
    Identity,
    Moebius,
    OperatorSpec,
    Polynomial,
    PowerMap,
    QuadratureGrid,
    RadialDensityMeasure,
    RadialWeight,
    Scale,
    berezin_criterion,
    classify,
    derivative_bound_sup,
    embedding_ls_criterion,
    embedding_sup_criterion,
    hinf_criterion,
    operator_norm_lower_bound,
    probe_lattice,
    pushforward,
    rho,
    verify_gamma,
)
from bergman import test_function as probe_function
from bergman.cli import main as cli_main

ONE = Polynomial([1.0])
SEED = 20240817


def announce(num, label, detail=""):
    print(f"ACCEPTANCE {num:2d} PASS  {label}" + (f"  [{detail}]" if detail else ""))


def band_maxima(samples):
    gaps = np.array([1.0 - abs(z) for z, _ in samples])
    vals = np.array([v for _, v in samples])
    bands = np.floor(-np.log2(gaps)).astype(int)
    return {int(b): float(np.max(vals[bands == b])) for b in np.unique(bands)}


def fitted_two_halving_growth(samples, skip_shallow=4):
    """Least-squares dyadic growth rate of the band maxima, as a factor per
    two halvings of the boundary gap."""
    bands = band_maxima(samples)
    ks = np.array([k for k in sorted(bands) if k >= skip_shallow])
    ys = np.log2([bands[k] for k in ks])
    slope = np.polyfit(ks, ys, 1)[0]
    return 2.0 ** (2.0 * slope)


def test_01_pseudohyperbolic_geometry():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    a = np.sqrt(rng.uniform(0, 1, 1000)) * 0.995 * np.exp(2j * np.pi * rng.uniform(0, 1, 1000))
    r = rng.uniform(0.05, 0.95, 1000)
    theta = np.arange(64) * (2.0 * np.pi / 64)
    # Euclidean parameters, vectorized over the trials
    m2 = np.abs(a) ** 2
    denom = 1.0 - r ** 2 * m2
    centers = (1.0 - r ** 2) * a / denom
    radii = (1.0 - m2) * r / denom
    boundary = centers[:, None] + radii[:, None] * np.exp(1j * theta)[None, :]
    dev = np.abs(rho(a[:, None], boundary) - r[:, None])
    elapsed = time.monotonic() - t0
    assert np.max(dev) < 1e-9
    assert elapsed < 1.0
    announce(1, "pseudohyperbolic disc parameters",
             f"max dev {np.max(dev):.2e}, {elapsed:.2f}s")


def test_02_weight_classification():
    t0 = time.monotonic()
    for alpha in (-0.5, 0.0, 1.0, 3.0):
        report = classify(RadialWeight.power(alpha), mesh=128)
        assert report.exponent_lower == pytest.approx(alpha + 1.0, abs=0.05)
        assert report.exponent_upper == pytest.approx(alpha + 1.0, abs=0.05)
        assert report.dhat_constant == pytest.approx(2.0 ** (alpha + 1.0), rel=0.05)
        assert report.doubling
    rejected = classify(RadialWeight.exp_inverse(), mesh=128)
    assert not rejected.upper_doubling
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    announce(2, "doubling classification of standard weights",
             f"exp(-1/(1-r)) rejected, {elapsed:.2f}s")


def test_03_norm_equivalence():
    rng = np.random.default_rng(SEED)
    polys = []
    for _ in range(50):
        deg = int(rng.integers(1, 21))
        polys.append(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
    grids = {lvl: QuadratureGrid(lvl) for lvl in (8, 10)}
    cases = [(alpha, p) for alpha in (0.0, 1.0) for p in (0.5, 1.0, 2.0, 4.0)]
    weights = {alpha: RadialWeight.power(alpha) for alpha in (0.0, 1.0)}
    ratios = {case: {} for case in cases}
    for lvl, g in grids.items():
        gaps = np.repeat(g.ring_gaps, g.ring_counts)
        node_w = np.repeat(g.ring_node_weights, g.ring_counts)
        nodes = np.concatenate([z for z, _, _ in g.blocks()])
        dens = {alpha: (w.density_at_gap(gaps) * node_w,
                        w.tail_density_at_gap(gaps) * node_w)
                for alpha, w in weights.items()}
        vals = {case: [] for case in cases}
        for coeffs in polys:  # |f| once per (polynomial, grid), for every (alpha, p)
            mod = np.abs(np.polynomial.polynomial.polyval(nodes, coeffs))
            for alpha, p in cases:
                fv = mod ** p
                num = np.sum(fv * dens[alpha][1]) ** (1.0 / p)
                den = np.sum(fv * dens[alpha][0]) ** (1.0 / p)
                vals[alpha, p].append(num / den)
        for case in cases:
            ratios[case][lvl] = np.array(vals[case])
    worst_change = 0.0
    for case in cases:
        bracket = 5.0
        fine = ratios[case][10]
        assert np.all(fine < bracket) and np.all(fine > 1.0 / bracket)
        # a single constant per (weight, p): the spread across functions
        assert np.max(fine) / np.min(fine) < 1.05
        change = np.max(np.abs(ratios[case][8] - fine) / fine)
        worst_change = max(worst_change, change)
        assert change < 0.01
    announce(3, "norm equivalence against the tail-density weight",
             f"worst refinement change {worst_change:.2e}")


def test_04_derivative_bound():
    rng = np.random.default_rng(SEED)
    w = RadialWeight.power(0.0)
    p = 2.0
    family = [probe_function(a, 3.0, p, w) for a in (0.0, 0.5, 0.9, 0.99)]
    for _ in range(20):
        deg = int(rng.integers(1, 21))
        family.append(Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)))
    grids = {lvl: QuadratureGrid(lvl) for lvl in (8, 10)}
    worst = {}
    bounds = {lvl: derivative_bound_sup(family, (0, 1, 2), p, w, g) for lvl, g in grids.items()}
    for n in (0, 1, 2):
        sups = {lvl: float(np.max(b[:, n])) for lvl, b in bounds.items()}
        assert np.isfinite(sups[10])
        change = abs(sups[10] - sups[8]) / sups[10]
        assert change < 0.10
        worst[n] = (sups[10], change)
    announce(4, "pointwise derivative bound constants",
             ", ".join(f"n={n}: C={c:.3f} (drift {d:.1%})" for n, (c, d) in worst.items()))


def test_05_embedding_boundary_reproduction(grid8):
    t0 = time.monotonic()
    cells = [(alpha, p, q, n)
             for alpha in (0.0, 1.0)
             for (p, q) in ((1.0, 1.0), (1.0, 2.0), (2.0, 4.0))
             for n in (0, 1, 2)]
    assert len(cells) == 18
    agreements = 0
    for alpha, p, q, n in cells:
        w = RadialWeight.power(alpha)
        for margin in (0.3, -0.3):
            beta = (alpha + 2.0) * q / p + n * q - 2.0 + margin
            mu = RadialDensityMeasure.from_power(beta, grid8)
            report = embedding_sup_criterion(p, q, n, w, mu, r=0.3, depth=14)
            if margin > 0:
                assert report.verdict == "bounded-consistent"
                assert report.refinement["growth"] <= 1.10
            else:
                assert report.verdict == "divergent"
                # dyadic tail growth: >= 1.5 per two halvings of the gap
                growth2 = fitted_two_halving_growth(report.samples)
                assert growth2 >= 1.5
            agreements += 1
    elapsed = time.monotonic() - t0
    assert agreements == 36
    assert elapsed < 300.0
    announce(5, "embedding supremum criterion vs exponent oracle",
             f"36/36 verdicts, {elapsed:.1f}s")


def test_06_q_less_p_criterion(grid8):
    w_by_alpha = {a: RadialWeight.power(a) for a in (0.0, 1.0)}
    for alpha, (p, q), n in [(0.0, (2.0, 1.0), 0), (0.0, (2.0, 1.0), 1),
                             (1.0, (4.0, 1.0), 0), (1.0, (4.0, 1.0), 2)]:
        w = w_by_alpha[alpha]
        s = p / (p - q)
        for margin in (0.3, -0.3):
            beta = (-1.0 + margin - alpha) / s + alpha + n * q
            mu = RadialDensityMeasure.from_power(beta, grid8)
            report = embedding_ls_criterion(p, q, n, w, mu, r=0.3)
            expected = "bounded-consistent" if margin > 0 else "divergent"
            assert report.verdict == expected
    # interior case: computed norm against the independent 1-d oracle
    w = w_by_alpha[0.0]
    mu = RadialDensityMeasure.from_power(2.0, grid8)
    report = embedding_ls_criterion(2.0, 1.0, 1, w, mu, r=0.3)

    r = 0.3

    def mu_delta(rho_val):
        c = (1 - r * r) * rho_val / (1 - r * r * rho_val ** 2)
        R = (1 - rho_val ** 2) * r / (1 - r * r * rho_val ** 2)
        if c < 1e-14:
            val, _ = quad(lambda t: (1 - t) ** 2 * 2 * t, 0.0, R)
            return val
        val, _ = quad(
            lambda t: (1 - t) ** 2 * t * 2.0 * np.arccos(
                np.clip((t * t + c * c - R * R) / (2 * t * c), -1, 1)) / np.pi,
            max(0.0, c - R), c + R, limit=400)
        return val

    def b_profile(rho_val):
        ws = (1 - rho_val) * (1 - rho_val ** 2) / (2 * np.pi) if rho_val > 0 else 1.0
        return mu_delta(rho_val) / (ws * (1 - rho_val))

    oracle_sq, _ = quad(lambda t: b_profile(t) ** 2 * 2 * t, 1e-12, 1 - 1e-12,
                        limit=800)
    oracle = math.sqrt(oracle_sq)
    assert oracle == pytest.approx(0.3834585286374044, rel=1e-6)
    assert report.statistic == pytest.approx(oracle, rel=0.10)
    announce(6, "q < p integrability criterion vs radial oracle",
             f"norm {report.statistic:.6f} vs oracle {oracle:.6f}")


def test_07_pushforward_identity():
    rng = np.random.default_rng(SEED)
    n_atoms = 100_000
    pts = np.sqrt(rng.uniform(0, 1, n_atoms)) * 0.999 * np.exp(
        2j * np.pi * rng.uniform(0, 1, n_atoms))
    mu = AtomicMeasure(pts, rng.uniform(0, 1, n_atoms))

    def h(z):
        return 1.0 + np.abs(z) ** 2

    worst = 0.0
    for phi in (Identity(), PowerMap(2), Moebius(0.3)):
        pf = pushforward(phi, h, mu)
        for g in (lambda z: z ** 3 - 0.5 * z,
                  lambda z: np.abs(1.0 - 0.7 * z) ** -2):
            lhs = pf.integrate(g)
            rhs = np.sum(g(phi(pts)) * h(pts) * mu.masses).item()
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    assert worst <= 1e-12
    announce(7, "pushforward change of variable (1e5 atoms)",
             f"max residual {worst:.2e}")


def test_08_berezin_crosscheck(grid10):
    t0 = time.monotonic()
    basepoints, _ = probe_lattice(depth=8, angles_per_ring=2)
    cells = [(alpha, p, q, n)
             for alpha in (0.0, 1.0)
             for (p, q) in ((2.0, 2.0), (1.0, 2.0), (2.0, 4.0))
             for n in (0, 1)]
    assert len(cells) == 12
    validated = {}
    for alpha, p, q, n in cells:
        w = RadialWeight.power(alpha)
        gamma0 = 2.0 * (alpha + 2.0) / p
        for gamma in (gamma0, 1.5 * gamma0):
            key = (alpha, p, round(gamma, 9))
            if key not in validated:
                ok, _ = verify_gamma(w, p, gamma, grid=QuadratureGrid(12))
                validated[key] = ok
            assert validated[key]
        op = OperatorSpec(Identity(), ONE, n)
        for margin in (0.3, -0.3):
            beta = (alpha + 2.0) * q / p + n * q - 2.0 + margin
            nu = RadialDensityMeasure.from_weight(RadialWeight.power(beta), grid10)
            expected = "bounded-consistent" if margin > 0 else "divergent"
            verdicts = []
            for gamma in (gamma0, 1.5 * gamma0):
                report = berezin_criterion(op, p, q, w, nu, gamma,
                                           basepoints=basepoints, grid=grid10)
                verdicts.append(report.verdict)
            assert verdicts[0] == verdicts[1] == expected
    elapsed = time.monotonic() - t0
    announce(8, "Berezin criterion vs classical exponent condition",
             f"12 cells x 2 sides x 2 gammas, {elapsed:.1f}s")


def test_09_hinf_two_sidedness(grid10, unit_weight):
    upoly = Polynomial([0.5, 0.25, 0.25j])
    cases = [
        (Scale(0.5), ONE, 0, "finite"),
        (Scale(0.5), upoly, 1, "finite"),
        # surjective symbols with a non-vanishing coefficient diverge:
        # sup |phi| = 1 and |u| stays bounded below on part of the boundary
        (Moebius(0.5), ONE, 0, "divergent"),
        (Moebius(0.5), upoly, 2, "divergent"),
        (PowerMap(2), upoly, 0, "divergent"),
    ]
    ratios = []
    for phi, u, n, expected in cases:
        op = OperatorSpec(phi, u, n)
        report = hinf_criterion(op, 2.0, unit_weight, grid=grid10)
        if expected == "finite":
            assert report.verdict == "bounded-consistent"
            zstar = max(report.samples, key=lambda t: t[1])[0]
            astar = complex(phi(np.array([zstar]))[0])
            family = [ONE, Polynomial([0, 0, 1.0])]
            for a in (astar, astar * 0.5, 0.5):
                family.append(probe_function(a, 3.0, 2.0, unit_weight))
            lb = operator_norm_lower_bound(op, 2.0, 2.0, unit_weight, None,
                                           family, grid10, target="hinf")
            ratios.append(lb / report.statistic)
        else:
            assert report.verdict == "divergent"
    ratios = np.array(ratios)
    c_low = 0.02
    assert np.all(ratios >= c_low) and np.all(ratios <= 1.5)
    announce(9, "bounded-target two-sidedness",
             f"finite-case ratios in [{ratios.min():.3f}, {ratios.max():.3f}]")


def test_10_gamma_verification():
    t0 = time.monotonic()
    worst_drift = 0.0
    for alpha in (0.0, 1.0, 3.0):
        w = RadialWeight.power(alpha)
        for p in (1.0, 2.0):
            gamma = 2.0 * (alpha + 2.0) / p
            ok13, c13 = verify_gamma(w, p, gamma, grid=QuadratureGrid(13))
            ok15, c15 = verify_gamma(w, p, gamma, grid=QuadratureGrid(15))
            assert ok13 and ok15
            drift = abs(c15 - c13) / c15
            worst_drift = max(worst_drift, drift)
            assert drift < 0.10
    ok, _ = verify_gamma(RadialWeight.power(0.0), 2.0, 0.5, grid=QuadratureGrid(13))
    assert not ok
    elapsed = time.monotonic() - t0
    announce(10, "kernel-domination exponent verification",
             f"worst refinement drift {worst_drift:.2%}, {elapsed:.0f}s")


def test_11_determinism(tmp_path):
    cfg = {
        "schema": 1, "seed": 3, "p": 2.0, "q": 2.0, "grid_level": 7,
        "lattice_r": 0.3,
        "weight": {"kind": "power", "alpha": 0.0},
        "operator": {"phi": {"kind": "scale", "r": 0.5},
                     "u": {"kind": "poly", "coeffs": [[1, 0]]}, "n": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_main(["criterion", "hinf", "--config", str(cfg_path),
                         "--out", str(out), "--deterministic"])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    announce(11, "deterministic reports", f"{len(blobs[0])} bytes, identical")
