"""Whole-grid sums streamed a range at a time, against whole-grid references.

A grid keeps no per-node array, so every whole-grid sum (norms, the
norm-equivalence ratios, the derivative sup bound, integrals against a
measure) reads its nodes a range at a time.  The references here build the
whole grid's nodes and weights at once, in the test, and sum them the way
the code did before it streamed.  The streamed sums add their ranges' sums
in range order, so they agree with the references up to rounding: the
contract checked on every grid is 1e-13 relative.  tracemalloc guards bound
what the streamed passes allocate.
"""

import tracemalloc

import numpy as np
import pytest

from bergman import (
    ConformalPower,
    Moebius,
    OperatorSpec,
    Polynomial,
    PowerMap,
    QuadratureGrid,
    RadialDensityMeasure,
    RadialWeight,
    bergman_norm,
    derivative_bound_sup,
    hinf_criterion,
    norm_against_measure,
    norm_equivalence_ratios,
    operator_norm_lower_bound,
    probe_lattice,
    pushforward,
    r_lattice,
)
from bergman import cli, geometry, measures
from bergman.config import SCHEMA_VERSION, ExperimentConfig

RTOL = 1e-13


def whole_grid(grid):
    """(nodes, gaps, weights) of every node of the grid at once."""
    return (grid.node_range(0, grid.node_count),
            np.repeat(grid.ring_gaps, grid.ring_counts),
            np.repeat(grid.ring_node_weights, grid.ring_counts))


def assert_close(got, want):
    assert abs(got - want) <= RTOL * abs(want), (got, want)


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=[6, 8, 13])
def grid_arrays(request):
    grid = QuadratureGrid(request.param)
    return grid, whole_grid(grid)


@pytest.fixture(scope="module")
def weight():
    return RadialWeight.log_power(1.0, 2.0)


def functions(level):
    fs = [Polynomial([0.3, -1.0 + 0.5j, 0.25, 2.0j]), ConformalPower(0.9j, 3.0)]
    if level < 13:  # the whole-grid reference costs about 0.3 s per function at 13
        rng = np.random.default_rng(11)
        fs += [Polynomial(rng.normal(size=9) + 1j * rng.normal(size=9)),
               ConformalPower(0.99, 2.0)]
    return fs


# ---------------------------------------------------------------------------
# streamed sums against whole-grid references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 2.0])
def test_norm_and_ratios_match_whole_grid(grid_arrays, weight, p):
    grid, (nodes, gaps, node_w) = grid_arrays
    dens = weight.density_at_gap(gaps)
    tail_dens = weight.tail_density_at_gap(gaps)
    fs = functions(grid.levels)
    ratios = norm_equivalence_ratios(fs, p, weight, grid)
    for f, ratio in zip(fs, ratios):
        vals = np.abs(f(nodes)) ** p
        want = float(np.sum(vals * dens * node_w) ** (1.0 / p))
        assert_close(bergman_norm(f, p, weight, grid), want)
        tail = float(np.sum(vals * tail_dens * node_w) ** (1.0 / p))
        assert_close(ratio, tail / want)


def test_sup_bounds_match_whole_grid(grid_arrays, weight):
    grid, (nodes, gaps, node_w) = grid_arrays
    p, orders = 2.0, (0, 1, 2)
    dens = weight.density_at_gap(gaps)
    ws = weight.carleson_mass_at_gap(gaps) ** (1.0 / p)
    fs = functions(grid.levels)
    got = derivative_bound_sup(fs, orders, p, weight, grid)
    for f, row in zip(fs, got):
        norm = float(np.sum(np.abs(f(nodes)) ** p * dens * node_w) ** (1.0 / p))
        for n, bound in zip(orders, row):
            want = float(np.max(np.abs(f.eval_deriv(n, nodes)) * ws * gaps ** n)) / norm
            assert_close(bound, want)


def test_hinf_lower_bound_matches_whole_grid(grid_arrays, weight):
    grid, (nodes, _, _) = grid_arrays
    f = functions(grid.levels)[0]
    op = OperatorSpec(Moebius(0.3 - 0.2j), Polynomial([1.0, 0.5]), 1)
    got = operator_norm_lower_bound(op, 2.0, 2.0, weight, None, [f], grid, target="hinf")
    num = np.max(np.abs(op.u(nodes) * f.eval_deriv(1, op.phi(nodes))))
    assert_close(got, float(num) / bergman_norm(f, 2.0, weight, grid))


def test_integrals_match_whole_support(grid_arrays, weight):
    grid, (nodes, gaps, node_w) = grid_arrays
    masses = weight.density_at_gap(gaps) * node_w
    mu = RadialDensityMeasure.from_weight(weight, grid)
    g = lambda z: (z + 0.3) ** 3
    assert_close(mu.integrate(g), np.sum(g(nodes) * masses).item())
    assert_close(mu.integrate(np.abs), np.sum(np.abs(nodes) * masses).item())
    assert_close(norm_against_measure(g, 1.5, mu),
                 float(np.sum(np.abs(g(nodes)) ** 1.5 * masses) ** (1.0 / 1.5)))
    pf = pushforward(PowerMap(2), lambda z: 1.0 + np.abs(z) ** 2, mu)
    want = np.sum(g(nodes ** 2) * (1.0 + np.abs(nodes) ** 2) * masses).item()
    assert_close(pf.integrate(g), want)


# ---------------------------------------------------------------------------
# memory of the streamed passes
# ---------------------------------------------------------------------------

def lemma21_config(level):
    return ExperimentConfig.from_dict({
        "schema": SCHEMA_VERSION, "p": 2.0, "grid_level": level, "seed": 5,
        "weight": {"kind": "log_power", "alpha": 1.0, "b": 2.0}})


def test_lemma21_pass_stays_small():
    """verify lemma21 at grid level 6 sweeps grids 6 and 8 with 25 functions
    at three orders; one pass per function, a range of nodes at a time,
    keeps it under 4 MB traced (it held the 65,408-node arrays before)."""
    cli._verify_lemma21(lemma21_config(2))  # first-call allocations stay out
    cfg = lemma21_config(6)
    cfg.grid(6), cfg.grid(8)
    peak = traced_peak(lambda: cli._verify_lemma21(cfg))
    assert peak < 4e6, peak


def test_hinf_criterion_stays_small(weight):
    """hinf_criterion on grid 11 (524,160 nodes) sweeps the grid in blocks
    of measures._NODE_BLOCK nodes and reads the tail a chunk of gaps at a
    time: under 4 MB traced."""
    op = OperatorSpec(Moebius(0.3 + 0.1j), Polynomial([1.0, 0.5]), 1)
    hinf_criterion(op, 2.0, weight, QuadratureGrid(4))
    grid = QuadratureGrid(11)
    peak = traced_peak(lambda: hinf_criterion(op, 2.0, weight, grid))
    assert peak < 4e6, peak


# ---------------------------------------------------------------------------
# radial pseudo-disc masses once per distinct centre radius
# ---------------------------------------------------------------------------

def per_centre_masses(weight, centers, r, gaps):
    """The pseudo-disc masses from the polar rule on every centre, the way
    RadialDensityMeasure computed them before it deduplicated radii."""
    c, R, g_out, _ = measures._disc_params(np.abs(centers), gaps, r)
    nodes, w = geometry._polar_rule(c, R, g_out)
    vals = weight.density_at_gap(nodes.ravel()).reshape(nodes.shape)
    return np.einsum("bij,bij->b", vals, np.broadcast_to(w, nodes.shape))


@pytest.mark.parametrize("r", [0.3, 0.7])
def test_radial_pseudo_disc_masses_match_per_centre(weight, r):
    mu = RadialDensityMeasure.from_weight(weight, QuadratureGrid(3))
    pts, gaps = probe_lattice(depth=14)
    lattice = r_lattice(0.5, 4)
    cases = [(pts, gaps), (lattice, 1.0 - np.abs(lattice)),
             (np.array([0.5, 0.5j, 0.0, 0.5]), np.array([0.5, 0.5, 1.0, 0.5]))]
    for centers, center_gaps in cases:
        got = mu.pseudo_disc_masses(centers, r, center_gaps)
        want = per_centre_masses(weight, centers, r, center_gaps)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert mu.pseudo_disc_masses(np.empty(0, complex), r, np.empty(0)).shape == (0,)


def test_probe_lattice_masses_run_once_per_radius(weight, monkeypatch):
    """The polar rule runs on one disc per distinct (|a|, 1-|a|) pair.  The 8
    angles of a probe_lattice ring share their gap, and their rounded moduli
    take two to four values per ring: 58 discs for 224 centres."""
    mu = RadialDensityMeasure.from_weight(weight, QuadratureGrid(3))
    pts, gaps = probe_lattice(depth=14)
    discs = []
    rule = geometry._polar_rule
    monkeypatch.setattr(geometry, "_polar_rule",
                        lambda c, R, g: discs.append(len(c)) or rule(c, R, g))
    mu.pseudo_disc_masses(pts, 0.3, gaps)
    distinct = len(set(zip(np.abs(pts).tolist(), gaps.tolist())))
    assert discs == [distinct]
    assert distinct < len(pts) / 3, distinct
