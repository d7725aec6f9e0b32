"""Per-ring evaluation of radial quantities against per-node references.

The grid keeps only ring arrays and builds its nodes from them a block at a
time (blocks); seed_layout, the plain ring-by-ring construction it replaced,
is the oracle its arrays and every block of its nodes must match bit for
bit.  Every radial quantity on a QuadratureGrid is evaluated once per ring
and repeated over the ring's nodes, and every whole-grid sum streams the
nodes a block at a time.  The references here evaluate the same quantity on
every node of seed_layout's whole-grid arrays, and the results must agree to
1e-12 relative.  verify_gamma's ring-and-band
summation is checked against the plain per-node kernel loop, and its angular
template against the closed-form angular mean of the kernel.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import hyp2f1

from bergman import (
    ConformalPower,
    Polynomial,
    QuadratureGrid,
    RadialDensityMeasure,
    RadialWeight,
    bergman_norm,
    derivative_bound_sup,
    norm_equivalence_ratios,
    probe_lattice,
    r_lattice,
    verify_gamma,
)
from bergman import geometry, measures
from bergman.criteria import _ring_kernel_means

RTOL = 1e-12

WEIGHTS = {
    "power": lambda: RadialWeight.power(1.0),
    "log_power": lambda: RadialWeight.log_power(1.0, 2.0),
}


def seed_layout(grid):
    """The grid's arrays from the ring-by-ring loop it replaced: per-node
    nodes, gaps and weights, and the three ring arrays."""
    gl_x = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    gl_w = np.array([0.5, 0.5])
    m = 4  # radial subcells per annulus
    ring_gaps, masses, bands = [], [], []
    for k in range(grid.levels + 1):
        u_hi = 2.0 ** (-k)
        if k < grid.levels:
            edges = np.linspace(u_hi / 2.0, u_hi, m + 1)
            subs = [(edges[i], edges[i + 1]) for i in range(m)]
        else:
            cap = [u_hi * 2.0 ** (-i) for i in range(m)] + [0.0]
            subs = [(cap[i + 1], cap[i]) for i in range(m)][::-1]
        for lo, hi in subs:
            width = hi - lo
            for x, wgl in zip(gl_x, gl_w):
                u = lo + width * x
                ring_gaps.append(u)
                masses.append(wgl * width * (1.0 - u))
                bands.append(k)
    nodes, gaps, weights, ring_weights, ring_counts = [], [], [], [], []
    for u, w_rad, band in zip(np.array(ring_gaps), np.array(masses),
                              np.array(bands, dtype=int)):
        n_theta = grid.angular_base * 2 ** band
        theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
        gaps.append(np.full(n_theta, u))
        weights.append(np.full(n_theta, w_rad * (2.0 * math.pi / n_theta) / math.pi))
        nodes.append((1.0 - u) * np.exp(1j * theta))
        ring_weights.append(w_rad * 2.0)
        ring_counts.append(n_theta)
    return {
        "nodes": np.concatenate(nodes),
        "gaps": np.concatenate(gaps),
        "weights": np.concatenate(weights),
        "ring_gaps": np.array(ring_gaps),
        "ring_weights": np.array(ring_weights),
        "ring_counts": np.array(ring_counts),
    }


@pytest.fixture(scope="module", params=[6, 9])
def grid(request):
    return QuadratureGrid(request.param)


@pytest.fixture(scope="module")
def layout(grid):
    """The grid's whole-grid arrays, from the oracle."""
    return seed_layout(grid)


@pytest.fixture(scope="module")
def gaps(layout):
    """Per-node gaps of the grid, from the oracle."""
    return layout["gaps"]


@pytest.fixture(scope="module", params=sorted(WEIGHTS))
def weight(request):
    return WEIGHTS[request.param]()


def functions():
    rng = np.random.default_rng(7)
    polys = [Polynomial(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
             for d in (1, 5, 12)]
    return polys + [ConformalPower(0.9j, 3.0), ConformalPower(0.99, 2.0)]


def node_norm(f, p, dens, layout):
    """bergman_norm from the weight density on every node (dens) of the
    oracle's layout."""
    vals = np.abs(f(layout["nodes"])) ** p
    return float(np.sum(vals * dens * layout["weights"]) ** (1.0 / p))


def assert_close(got, want):
    assert abs(got - want) <= RTOL * abs(want), (got, want)


RING_ARRAYS = ("ring_gaps", "ring_weights", "ring_counts", "ring_node_weights")


@pytest.mark.parametrize("angular_base", [16, 64])
@pytest.mark.parametrize("level", range(1, 13))
def test_grid_matches_seed_layout_bitwise(level, angular_base):
    grid = QuadratureGrid(level, angular_base)
    want = seed_layout(grid)
    got = {name: getattr(grid, name) for name in RING_ARRAYS[:3]}
    got["nodes"] = np.concatenate([z for z, _, _ in grid.blocks()])
    got["weights"] = np.repeat(grid.ring_node_weights, grid.ring_counts)
    for name, arr in got.items():
        assert arr.dtype == want[name].dtype, name
        assert np.array_equal(arr, want[name]), name
    assert not any(hasattr(grid, name) for name in ("gaps", "nodes", "weights"))


def block_sizes(grid):
    """Block sizes to stream a grid's nodes in: small, the default, and one
    block of the whole grid."""
    return (1 << 10, measures._NODE_BLOCK, grid.node_count)


def ring_ranges(counts, per_band):
    """(lo, hi) ranges of the points of rings holding counts points each, of
    every kind: inside one ring, across rings, across the boundary before
    ring per_band and across several rings, the whole set, past its end,
    empty."""
    ends = np.cumsum(counts)
    starts = ends - counts
    last = len(starts) - 1
    count = int(ends[-1])
    mid = lambda ring: int(starts[ring] + counts[ring] // 2)
    return [
        (int(starts[last]) + int(counts[last]) // 3,
         int(starts[last]) + 2 * int(counts[last]) // 3),
        (int(starts[3]), int(ends[3])),
        (mid(1), mid(3)),
        (int(starts[per_band]) - 1, int(starts[per_band]) + 1),
        (mid(per_band - 2), mid(last - 1)),
        (0, count),
        (count - 3, count + 100),
        (7, 7),
        (count, count + 10),
    ]


@pytest.mark.parametrize("angular_base", [1, 3, 16])
@pytest.mark.parametrize("level", range(1, 13))
def test_node_range_matches_nodes_bitwise(monkeypatch, level, angular_base):
    """Each of the grid's blocks is the next _NODE_BLOCK nodes of the
    oracle's order, bit for bit, with the rings they lie on and their
    counts; so is every range of points the ring builder behind the blocks
    makes."""
    grid = QuadratureGrid(level, angular_base)
    layout = seed_layout(grid)
    nodes, gaps = layout["nodes"], layout["gaps"]
    for block in block_sizes(grid):
        monkeypatch.setattr(measures, "_NODE_BLOCK", block)
        lo = 0
        for got, rings, taken in grid.blocks():
            hi = min(lo + block, grid.node_count)
            assert got.dtype == nodes.dtype
            assert np.array_equal(got, nodes[lo:hi]), (block, lo)
            assert np.array_equal(np.repeat(grid.ring_gaps[rings], taken), gaps[lo:hi])
            assert np.all(taken > 0)
            lo = hi
        assert lo == grid.node_count, block
    for lo, hi in ring_ranges(grid.ring_counts, 2 * grid.radial_subcells):
        assert np.array_equal(geometry._ring_points(grid.ring_gaps, grid.ring_counts, lo, hi),
                              nodes[lo:hi]), (lo, hi)
    # the ring builder on rings whose counts change from ring to ring (an
    # r-lattice's) and to the end of the set (hi = None)
    gaps, counts, points = ring_loop_r_lattice(0.5, level + 2)
    for lo, hi in ring_ranges(counts, 2):
        assert np.array_equal(geometry._ring_points(gaps, counts, lo, hi),
                              points[lo:hi]), (lo, hi)
        assert np.array_equal(geometry._ring_points(gaps, counts, lo), points[lo:])


def ring_loop_r_lattice(r, depth):
    """r_lattice's rings and points from the per-ring loop it replaced:
    (gaps, counts, points)."""
    n_sub = max(1, math.ceil(0.7 / r))
    gaps = 2.0 ** (-(np.arange(n_sub * depth) + 0.5) / n_sub)
    radii = 1.0 - gaps
    counts = np.maximum(
        1, np.ceil(4.0 * math.pi * radii / (r * gaps * (2.0 - gaps)))).astype(int)
    pieces = []
    for u, n in zip(gaps, counts):
        theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        pieces.append((1.0 - u) * np.exp(1j * theta))
    return gaps, counts, np.concatenate(pieces)


def outer_product_rings(gaps, n_angles):
    """Rings of n_angles points as the outer product that probe_lattice and
    the 32-angle embedding_ls_criterion mesh used."""
    theta = (np.arange(n_angles) + 0.5) * (2.0 * math.pi / n_angles)
    return ((1.0 - gaps)[:, None] * np.exp(1j * theta)[None, :]).ravel()


def same_bits(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r,depth", [(0.9, 3), (0.5, 12), (0.3, 14), (0.05, 6)])
def test_r_lattice_matches_ring_loop(r, depth):
    assert same_bits(r_lattice(r, depth), ring_loop_r_lattice(r, depth)[2])


@pytest.mark.parametrize("depth,angles", [(1, 8), (9, 8), (14, 8), (6, 5)])
def test_probe_lattice_matches_outer_product(depth, angles):
    pts, gaps = probe_lattice(depth, angles)
    want_gaps = 2.0 ** (-(np.arange(2 * depth) + 0.5) / 2)
    assert same_bits(pts, outer_product_rings(want_gaps, angles))
    assert same_bits(gaps, np.repeat(want_gaps, angles))


@pytest.mark.parametrize("level", [3, 10, 12, 16])
def test_ls_mesh_matches_outer_product(level):
    ring_gaps = measures._ring_layout(level)[0]
    got = geometry._ring_points(ring_gaps, np.full(len(ring_gaps), 32))
    assert same_bits(got, outer_product_rings(ring_gaps, 32))


def traced_peak(run):
    """Peak tracemalloc bytes of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_build_holds_and_peaks_near_its_arrays():
    """A grid keeps its ring arrays only, a few bytes per ring whatever its
    node count, and building it allocates little beyond them."""
    QuadratureGrid(4)  # first-call allocations stay out of the measurement
    grids = []
    peak = traced_peak(lambda: grids.append(QuadratureGrid(11)))
    grid, = grids
    held = sum(getattr(grid, name).nbytes for name in RING_ARRAYS)
    assert held <= 64 * len(grid.ring_gaps), held
    assert peak < 64e3, peak


def test_grid_keeps_no_node_arrays():
    """What a caller reads of a grid (counts, levels, the angular base, its
    blocks of nodes) builds no whole-grid array, and the grid has none."""
    grid = QuadratureGrid(9)
    assert grid.node_count == int(np.sum(grid.ring_counts))
    assert (grid.levels, grid.angular_base, grid.radial_subcells) == (9, 16, 4)
    assert "nodes=" in repr(grid)
    assert sum(len(z) for z, _, _ in grid.blocks()) == grid.node_count
    assert not any(hasattr(grid, name) for name in ("nodes", "weights"))
    assert all(isinstance(v, (int, np.ndarray)) and np.size(v) <= len(grid.ring_gaps)
               for v in vars(grid).values())


def test_blocks_hold_one_angle_template():
    """blocks() keeps the angle template of the ring count it is reading and
    drops it when the count changes: a grid-11 sweep peaks below two blocks
    (the one handed out and the one being built) plus twice the deepest
    template (the one held and the buffers that build the next), where a
    template kept for every count would add the shallower ones."""
    grid = QuadratureGrid(11)
    for _ in grid.blocks():  # first-call allocations stay out of the measurement
        pass

    def sweep():
        for _ in grid.blocks():
            pass

    peak = traced_peak(sweep)
    assert peak < 16 * (2 * measures._NODE_BLOCK + 2 * int(grid.ring_counts[-1])), peak


def test_verify_gamma_reads_rings_only():
    """verify_gamma sums ring by ring, and each ring's half-circle template a
    chunk of angles at a time, so at level 13 (2.1 M nodes, 65,536 template
    angles on the deepest rings) the whole call stays under 4 MB traced."""
    w = RadialWeight.log_power(1.0, 2.0)
    verify_gamma(w, 2.0, 3.0, grid=QuadratureGrid(4))  # first-call allocations stay out
    grid = QuadratureGrid(13)
    peak = traced_peak(lambda: verify_gamma(w, 2.0, 3.0, grid=grid))
    assert peak < 4e6, peak


def test_ring_arrays_broadcast_to_nodes(grid, gaps):
    assert np.array_equal(np.repeat(grid.ring_gaps, grid.ring_counts), gaps)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_bergman_norm_matches_node_reference(grid, layout, weight, p):
    """bergman_norm, and norm_equivalence_ratios' tail-density norm over it,
    against the norms from the densities on every node."""
    gaps = layout["gaps"]
    dens = weight.density_at_gap(gaps)
    tail_dens = weight.tail_integral_at_gap(gaps) / gaps
    fs = functions()
    for f, ratio in zip(fs, norm_equivalence_ratios(fs, p, weight, grid)):
        want = node_norm(f, p, dens, layout)
        assert_close(bergman_norm(f, p, weight, grid), want)
        assert_close(ratio, node_norm(f, p, tail_dens, layout) / want)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_derivative_bound_matches_node_reference(grid, layout, weight, n):
    """Each ring's largest |f^(n)| times the ring's factor is the node-wise
    maximum bit for bit (the factor is positive and rounding monotone), for
    a function alone and inside a family read at several orders.  The node
    reference reads the modulus the pass reads, f.abs_deriv; for a conformal
    power its closed form differs from |eval_deriv| by a few ulps
    (test_spaces.py bounds that)."""
    p = 2.0
    gaps = layout["gaps"]
    dens = weight.density_at_gap(gaps)
    ws = weight.carleson_mass_at_gap(gaps) ** (1.0 / p)
    fs = functions()
    family = derivative_bound_sup(fs, (2, n), p, weight, grid)
    for f, row in zip(fs, family):
        dvals = f.abs_deriv(n, layout["nodes"])
        norm = bergman_norm(f, p, weight, grid)
        assert_close(norm, node_norm(f, p, dens, layout))
        want = float(np.max(dvals * ws * gaps ** n)) / norm
        assert derivative_bound_sup([f], (n,), p, weight, grid)[0, 0] == want
        assert row[1] == want


def test_derivative_orders_stream_one_at_a_time():
    """The pass keeps one order's moduli alive at a time: reading orders
    (0, 1, 2) of a conformal-power family peaks within a quarter of one
    block's float array of reading order 0 alone, where holding every
    order's moduli at once would add two whole arrays per block."""
    w = RadialWeight.power(1.0)
    family = [ConformalPower(a, 3.0) for a in (0.0, 0.5, 0.9j)]
    derivative_bound_sup(family, (0, 1, 2), 2.0, w, QuadratureGrid(4))  # first-call allocations
    grid = QuadratureGrid(9)
    alone, streamed = (traced_peak(lambda: derivative_bound_sup(family, orders, 2.0, w, grid))
                       for orders in ((0,), (0, 1, 2)))
    assert streamed - alone < measures._NODE_BLOCK * 8 / 4, (alone, streamed)


def support_arrays(mu):
    """The measure's whole support, its blocks concatenated."""
    pts, masses = zip(*mu.support_blocks())
    return np.concatenate(pts), np.concatenate(masses)


def test_support_blocks_match_node_reference(grid, layout, weight):
    """The measure's streamed support (support_blocks), joined, is the
    grid's nodes with density times node weight, bit for bit."""
    mu = RadialDensityMeasure.from_weight(weight, grid)
    pts, masses = support_arrays(mu)
    want = weight.density_at_gap(layout["gaps"]) * layout["weights"]
    assert np.array_equal(pts, layout["nodes"])
    assert np.array_equal(masses, want)


def test_ranged_support_matches_whole_support(monkeypatch, grid, layout, weight):
    """A radial density measure streams its support in the grid's blocks:
    block by block, the grid's nodes with their masses, each block the
    slice of the whole support at its offset."""
    mu = RadialDensityMeasure.from_weight(weight, grid)
    masses = weight.density_at_gap(layout["gaps"]) * layout["weights"]
    assert mu.support_size == grid.node_count
    for block in block_sizes(grid):
        monkeypatch.setattr(measures, "_NODE_BLOCK", block)
        lo = 0
        for (got_pts, got_masses), (z, _, _) in zip(mu.support_blocks(), grid.blocks(),
                                                    strict=True):
            hi = lo + len(got_pts)
            assert len(got_pts) == min(block, grid.node_count - lo)
            assert np.array_equal(got_pts, z)
            assert np.array_equal(got_masses, masses[lo:hi]), (block, lo)
            lo = hi
        assert lo == grid.node_count, block


# ---------------------------------------------------------------------------
# verify_gamma
# ---------------------------------------------------------------------------

def node_verify_gamma(w, p, gamma, basepoints=None, grid=None):
    """The per-node kernel loop verify_gamma replaced, kept as the oracle."""
    if basepoints is None:
        a_gaps = 2.0 ** (-np.arange(21) / 2.0)
    else:
        a_gaps = 1.0 - np.abs(np.asarray(basepoints, dtype=complex))
        a_gaps = a_gaps[a_gaps > 0]
    a_vals = 1.0 - a_gaps
    layout = seed_layout(grid)
    gaps = layout["gaps"]
    pre = w.density_at_gap(gaps) * layout["weights"]
    e = gamma * p
    shallow_mask = gaps >= 2.0 ** -(grid.levels - 1)
    lhs = np.empty(len(a_vals))
    lhs_shallow = np.empty(len(a_vals))
    for i, a in enumerate(a_vals):
        kern = np.abs(1.0 - a * layout["nodes"]) ** (-e)
        contrib = pre * kern
        lhs[i] = np.sum(contrib)
        lhs_shallow[i] = np.sum(contrib[shallow_mask])
    rhs = w.tail_integral_at_gap(a_gaps) / a_gaps ** (e - 1.0)
    ratio = lhs / rhs
    ratio_shallow = lhs_shallow / rhs
    worst = float(np.max(ratio))
    worst_shallow = float(np.max(ratio_shallow))
    drift = abs(worst - worst_shallow) / max(worst, 1e-300)
    half = len(a_gaps) // 2
    x = -np.log(a_gaps[half:])
    y = np.log(np.maximum(ratio[half:], 1e-300))
    slope = float(np.polyfit(x, y, 1)[0])
    passed = bool(drift < 0.10 and slope <= 0.05 and np.isfinite(worst))
    return passed, worst


GAMMA_CASES = [(2.0, 3.0), (1.0, 6.0), (2.0, 0.5)]  # (p, gamma); the last fails


@pytest.mark.parametrize("p, gamma", GAMMA_CASES)
def test_verify_gamma_matches_node_oracle(weight, p, gamma):
    grid = QuadratureGrid(10)
    passed, worst = verify_gamma(weight, p, gamma, grid=grid)
    want_passed, want_worst = node_verify_gamma(weight, p, gamma, grid=grid)
    assert passed == want_passed
    assert_close(worst, want_worst)


def test_verify_gamma_matches_node_oracle_with_basepoints(weight):
    grid = QuadratureGrid(10)
    radii = 1.0 - 2.0 ** (-np.arange(0, 20, 1.5))
    basepoints = np.concatenate([radii * np.exp(1j * np.arange(len(radii))), [1.0, 1j]])
    for p, gamma in GAMMA_CASES:
        got = verify_gamma(weight, p, gamma, basepoints=basepoints, grid=grid)
        want = node_verify_gamma(weight, p, gamma, basepoints=basepoints, grid=grid)
        assert got[0] == want[0]
        assert_close(got[1], want[1])


@pytest.mark.parametrize("level, passes", [(5, False), (6, True)])
def test_verify_gamma_shallow_statistic_drops_two_levels(level, passes):
    """For the unweighted area and shallow basepoints the refinement drift
    is about the area of the two deepest levels (band L-1 and the closing
    cap), 1 - (1 - 2^-(L-1))^2: 12% at L = 5, 6% at L = 6, either side of
    the 10% bound."""
    grid = QuadratureGrid(level)
    w = RadialWeight.power(0.0)
    basepoints = np.array([0.0, 0.1, 0.2, 0.3])
    got = verify_gamma(w, 2.0, 2.0, basepoints=basepoints, grid=grid)
    want = node_verify_gamma(w, 2.0, 2.0, basepoints=basepoints, grid=grid)
    assert got[0] == want[0] == passes
    assert_close(got[1], want[1])


@pytest.mark.parametrize("c", [1.0, 2.5, 4.0])
def test_band_template_matches_hypergeometric_mean(c):
    """(1/2pi) int |1 - x e^{i theta}|^{-2c} d theta = 2F1(c, c; 1; x^2).

    The midpoint rule on n angles is exact up to aliasing terms of order
    x^n, so the template must reproduce the closed form wherever x^n is
    negligible."""
    grid = QuadratureGrid(9)
    a_gaps = 2.0 ** (-np.arange(21) / 2.0)
    a_vals = 1.0 - a_gaps
    checked = 0
    for n_theta in np.unique(grid.ring_counts):
        rings = grid.ring_counts == n_theta
        gaps = grid.ring_gaps[rings]
        means = _ring_kernel_means(a_vals, a_gaps, gaps, int(n_theta), 2.0 * c)
        x = a_vals[:, None] * (1.0 - gaps)[None, :]
        with np.errstate(under="ignore"):
            resolved = x ** int(n_theta) <= 1e-14
        exact = hyp2f1(c, c, 1.0, x[resolved] ** 2)
        np.testing.assert_allclose(means[resolved], exact, rtol=1e-10, atol=0.0)
        checked += int(np.sum(resolved))
    assert checked > 500


def test_band_template_odd_count_matches_full_circle():
    a = np.array([0.0, 0.5, 0.97])
    gaps = np.array([0.3, 0.02])
    n_theta = 7
    theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    z = (1.0 - gaps)[:, None] * np.exp(1j * theta)[None, :]
    want = np.mean(np.abs(1.0 - a[:, None, None] * z[None]) ** -3.0, axis=2)
    got = _ring_kernel_means(a, 1.0 - a, gaps, n_theta, 3.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
