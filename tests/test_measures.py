"""Grids, disc measures, and the weighted pushforward."""

import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bergman import (
    AtomicMeasure,
    DomainError,
    Moebius,
    Polynomial,
    PowerMap,
    QuadratureGrid,
    RadialDensityMeasure,
    RadialWeight,
    ResourceLimitError,
    Identity,
    pseudo_disc,
    pushforward,
    rho,
)
from bergman import geometry, measures
from bergman.errors import SelfMapViolationError


def grid_sum(grid, f):
    """The grid's quadrature of f: node values against the area weights."""
    weights = np.repeat(grid.ring_node_weights, grid.ring_counts)
    return float(np.sum(f(geometry._ring_points(grid.ring_gaps, grid.ring_counts)) * weights))


def support_arrays(mu):
    """The measure's whole support, its blocks concatenated."""
    pts, masses = zip(*mu.support_blocks())
    return np.concatenate(pts), np.concatenate(masses)


def in_square(a, pts):
    """Brute-force membership of pts in the Carleson square S(a): the whole
    disc for a = 0, otherwise |p| >= |a| and a wrapped angle gap below
    (1-|a|)/2."""
    pts = np.asarray(pts, dtype=complex)
    if a == 0:
        return np.abs(pts) < 1.0
    gap = np.abs((np.angle(pts) - np.angle(a) + math.pi) % (2.0 * math.pi) - math.pi)
    return (np.abs(pts) >= abs(a)) & (gap < (1.0 - abs(a)) / 2.0)


class TestGrid:
    @pytest.mark.parametrize("level", [1, 6, 10])
    def test_weights_sum_to_one(self, level):
        grid = QuadratureGrid(level)
        assert abs(np.repeat(grid.ring_node_weights, grid.ring_counts).sum() - 1.0) < 1e-10

    def test_nodes_inside_disc(self, grid8):
        assert all(np.all(np.abs(z) < 1.0) for z, _, _ in grid8.blocks())
        assert np.all(np.repeat(grid8.ring_gaps, grid8.ring_counts) > 0.0)

    def test_constant_integral(self, grid8):
        assert grid_sum(grid8, lambda z: np.full(z.shape, 2.5)) == pytest.approx(2.5)

    def test_second_moment(self):
        grid = QuadratureGrid(10)
        got = grid_sum(grid, lambda z: np.abs(z) ** 2)
        assert abs(got - 0.5) < 1e-6

    def test_smooth_refinement_stability(self):
        vals = {}
        for lvl in (8, 10):
            g = QuadratureGrid(lvl)
            vals[lvl] = grid_sum(g, lambda z: np.exp(z.real) * np.cos(z.imag))
        assert abs(vals[8] - vals[10]) / abs(vals[10]) < 5e-3

    def test_indicator_of_square(self):
        # indicator sums are limited by the angular cell size at the box edge
        target = 3.0 / (16.0 * math.pi)
        grid = QuadratureGrid(9, angular_base=64)
        got = grid_sum(grid, lambda z: in_square(0.5, z).astype(float))
        assert got == pytest.approx(target, rel=0.02)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            QuadratureGrid(24)

    def test_level_bounds(self):
        with pytest.raises(DomainError):
            QuadratureGrid(0)


class TestMeasureOf:
    def test_atom_in_disc(self):
        mu = AtomicMeasure(np.array([0.0 + 0.0j]), np.array([1.0]))
        assert mu.pseudo_disc_masses(np.array([0j]), 0.5, np.ones(1))[0] == 1.0

    def test_area_of_pseudo_disc_at_origin(self, grid8):
        mu = RadialDensityMeasure.from_power(0.0, grid8)
        for r in (0.2, 0.5, 0.8):
            got = mu.pseudo_disc_masses(np.array([0j]), r, np.ones(1))[0]
            assert got == pytest.approx(r * r, rel=1e-10)

    def test_power_density_scaling(self, grid8):
        # mu(Delta(z, r)) comparable to (1-|z|)^(beta+2) toward the boundary
        beta = 1.5
        mu = RadialDensityMeasure.from_power(beta, grid8)
        rho_vals = 1.0 - 2.0 ** (-np.arange(6, 16))
        masses = mu.pseudo_disc_masses(rho_vals.astype(complex), 0.4, 1.0 - rho_vals)
        ratios = masses / (1.0 - rho_vals) ** (beta + 2.0)
        assert np.max(ratios) / np.min(ratios) < 1.2

    def test_radial_mass_against_scipy(self, grid8):
        # independent oracle: 1-d arc-length integral of the radial density
        beta = 2.0
        mu = RadialDensityMeasure.from_power(beta, grid8)
        a, r = 0.6, 0.35
        d = pseudo_disc(a, r)
        c, R = abs(d.euclid_center), d.euclid_radius

        def arc(t):
            x = np.clip((t * t + c * c - R * R) / (2.0 * t * c), -1.0, 1.0)
            return 2.0 * np.arccos(x)

        oracle, _ = quad(lambda t: (1 - t) ** beta * t * arc(t) / np.pi,
                         c - R, c + R, limit=400)
        got = mu.pseudo_disc_masses(np.array([a + 0j]), r, np.array([1.0 - a]))[0]
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_atomic_disc_masses_vs_bruteforce(self, rng):
        pts = np.sqrt(rng.uniform(0, 1, 3000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 3000))
        masses = rng.uniform(0, 1, 3000)
        mu = AtomicMeasure(pts, masses)
        centers = np.array([0.1 + 0.2j, 0.85, -0.6j, 0.97])
        got = mu.pseudo_disc_masses(centers, 0.3, 1.0 - np.abs(centers))
        for i, c in enumerate(centers):
            expect = masses[rho(c, pts) < 0.3].sum()
            assert got[i] == pytest.approx(expect, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300),
           r=st.sampled_from([0.05, 0.3, 0.9]))
    def test_atomic_disc_masses_property(self, seed, n, r):
        rng = np.random.default_rng(seed)
        edges = 1.0 - 2.0 ** -np.arange(1, 13)  # gaps exactly 2^-k
        pts = np.concatenate([
            np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n)),
            edges + 0j,
            -edges + 0j,  # angle +pi
            np.conj(-edges + 0j),  # angle -pi
        ]) if n else np.array([], dtype=complex)
        masses = rng.uniform(0, 1, len(pts))
        mu = AtomicMeasure(pts, masses)
        theta = 2 * np.pi * rng.uniform(0, 1, 6)
        centers = np.concatenate([
            [0.0, -0.6, -0.6 + 1e-9j, -0.6 - 1e-9j, np.conj(-0.6 + 0j), -(1 - 2.0 ** -6)],
            0.5 * r * np.exp(1j * theta),  # discs that hold the origin
            np.sqrt(rng.uniform(0, 0.999, 8)) * np.exp(2j * np.pi * rng.uniform(0, 1, 8)),
        ])
        got = mu.pseudo_disc_masses(centers, r, 1.0 - np.abs(centers))
        for i, c in enumerate(centers):
            expect = masses[rho(c, pts) < r].sum()
            assert got[i] == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_atomic_disc_masses_across_chunks(self, monkeypatch):
        """Windows split across candidate chunks, centres across blocks and
        atoms across support blocks, each sorted and summed alone, with
        windows that wrap at +-pi over atoms on the +-pi rays: at every
        support block size the masses are the brute-force sums, and the discs
        that hold no atom hold exactly zero."""
        monkeypatch.setattr(measures, "_CANDIDATE_CHUNK", 7)
        monkeypatch.setattr(measures, "_CENTER_BLOCK", 3)
        rng = np.random.default_rng(8)
        edges = 1.0 - 2.0 ** -np.arange(1, 13)  # gaps exactly 2^-k
        pts = np.concatenate([
            np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * np.pi * rng.uniform(0, 1, 500)),
            -edges + 0j,  # angle +pi
            np.conj(-edges + 0j),  # angle -pi
        ])
        masses = rng.uniform(0, 1, len(pts))
        centers = np.concatenate([
            [0.0, -0.6 + 1e-9j, -0.6 - 1e-9j, np.conj(-0.6 + 0j), -(1 - 2.0 ** -6),
             0.9 * np.exp(3.0j), 0.9 * np.exp(-3.0j)],
            0.8 * np.exp(2j * np.pi * rng.uniform(0, 1, 9)),
            0.999 * np.exp(2j * np.pi * rng.uniform(0, 1, 9)),  # most hold no atom
        ])
        mu = AtomicMeasure(pts, masses)
        expect = np.array([masses[rho(c, pts) < 0.5].sum() for c in centers])
        empty = expect == 0.0
        assert 0 < np.count_nonzero(empty) < len(centers)
        for block in (1 << 9, measures._ATOM_BLOCK, mu.support_size):
            monkeypatch.setattr(measures, "_ATOM_BLOCK", block)
            got = mu.pseudo_disc_masses(centers, 0.5, 1.0 - np.abs(centers))
            assert got == pytest.approx(expect, rel=1e-12), block
            assert np.all(got[empty] == 0.0), block

    @staticmethod
    def assert_index_is_plain_sort(pts, masses):
        """keys, points, masses and band range of a block's index are those of
        the plain expressions: the block's keys sorted by argsort, and its
        points and masses gathered in that order (ties included)."""
        index = measures._SupportIndex(pts, masses)
        bands = geometry._band(1.0 - np.abs(pts))
        keys = measures._BAND_STRIDE * bands + np.angle(pts)
        order = np.argsort(keys)
        assert np.array_equal(index.keys, keys[order])
        assert np.array_equal(index.points.view(float), pts[order].view(float))
        assert np.array_equal(index.masses, masses[order])
        assert index.band_range == ((bands.min(), bands.max()) if len(pts) else None)

    @pytest.mark.parametrize("n", [0, 1, 2000])
    def test_block_index_is_plain_sort(self, n):
        rng = np.random.default_rng(9 + n)
        pts = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        if n > 1:
            edges = 1.0 - 2.0 ** -np.arange(1, 13)  # gaps exactly 2^-k, angles 0 and pi
            pts = np.concatenate([pts, edges + 0j, -edges + 0j, [0j]])
        self.assert_index_is_plain_sort(pts, rng.uniform(0, 1, len(pts)))

    def test_block_index_of_grid_support(self, grid8):
        """A block of a grid support repeats each band's angles on every ring
        of the band, so most keys tie; the tied nodes keep argsort's order."""
        density = RadialDensityMeasure(lambda u: 1.0 + u * u, grid8)
        _, (pts, masses), *_ = density.support_blocks()
        assert len(np.unique(np.angle(pts))) < len(pts) // 4
        self.assert_index_is_plain_sort(pts, masses)

    def test_grid_support_disc_masses_vs_bruteforce(self, grid8):
        # grid-shaped support: evenly spaced rings, many tied keys
        rng = np.random.default_rng(5)
        density = RadialDensityMeasure(lambda u: 1.0 + u * u, grid8)
        mu = AtomicMeasure(*support_arrays(density))
        pts, masses = mu.points, mu.masses
        centers = np.concatenate([
            [0.0, -0.6 + 1e-9j, 0.2j, 0.97],
            rng.uniform(-0.7, 0.7, 8) + 1j * rng.uniform(-0.7, 0.7, 8),
        ])
        for r in (0.05, 0.3, 0.9):
            got = mu.pseudo_disc_masses(centers, r, 1.0 - np.abs(centers))
            expect = [masses[rho(c, pts) < r].sum() for c in centers]
            assert got == pytest.approx(expect, rel=1e-12)

    def test_atomic_min_gap(self):
        rng = np.random.default_rng(6)
        pts = 0.9 * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
        pts[17] = 0.999j
        mu = AtomicMeasure(pts, np.ones(50))
        assert mu.min_gap == 1.0 - abs(pts[17])
        assert AtomicMeasure(np.array([], dtype=complex), np.array([])).min_gap == math.inf

    def test_zero_density_measure(self, grid8):
        mu = RadialDensityMeasure(np.zeros_like, grid8, name="zero")
        assert mu.pseudo_disc_masses(np.array([0.5 + 0j]), 0.3, np.array([0.5]))[0] == 0.0

    def test_power_measure_builds_no_weight(self, grid8, monkeypatch):
        # from_power holds u -> u^beta alone: no tails, no integrability probe
        def refuse(*args, **kwargs):
            raise AssertionError("from_power built a RadialWeight")

        monkeypatch.setattr(RadialWeight, "__init__", refuse)
        mu = RadialDensityMeasure.from_power(1.5, grid8)
        gaps = grid8.ring_gaps
        assert np.array_equal(mu.density_at_gap(gaps), gaps ** 1.5)
        assert mu.pseudo_disc_masses(np.array([0.5 + 0j]), 0.3, np.array([0.5]))[0] > 0.0

    def test_weight_measure_shares_its_weight(self, grid8, monkeypatch):
        # from_weight builds no RadialWeight of its own; its masses equal, bit
        # for bit, those of a measure on w's density
        w = RadialWeight.log_power(1.0, 2.0)
        rebuilt = RadialDensityMeasure(w.density_at_gap, grid8)
        built = []
        init = RadialWeight.__init__
        with monkeypatch.context() as m:
            m.setattr(RadialWeight, "__init__",
                      lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
            mu = RadialDensityMeasure.from_weight(w, grid8)
        assert built == []
        for got, want in zip(support_arrays(mu), support_arrays(rebuilt)):
            assert np.array_equal(got, want)
        centers = np.array([0.0, 0.3 - 0.2j, -0.9j, 0.999, 1 - 2.0 ** -20])
        gaps = 1.0 - np.abs(centers)
        for r in (0.1, 0.3, 0.9):
            assert np.array_equal(mu.pseudo_disc_masses(centers, r, gaps),
                                  rebuilt.pseudo_disc_masses(centers, r, gaps))

    def test_density_support_keeps_no_node_masses(self, grid8):
        # support_blocks computes the masses on each pass; the measure holds
        # no node-sized array between passes
        mu = RadialDensityMeasure.from_power(1.0, grid8)
        pts, first = support_arrays(mu)
        assert not any(np.size(v) >= grid8.node_count for v in vars(mu).values())
        _, second = support_arrays(mu)
        assert len(first) == len(pts) == grid8.node_count
        assert np.array_equal(first, second)


class TestPushforward:
    def _atoms(self, rng, n=5000):
        pts = np.sqrt(rng.uniform(0, 1, n)) * 0.999 * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        return AtomicMeasure(pts, rng.uniform(0, 1, n))

    @pytest.mark.parametrize("phi", [Identity(), PowerMap(2), Moebius(0.3)])
    def test_change_of_variable_identity(self, rng, phi):
        mu = self._atoms(rng)
        h = lambda z: 1.0 + np.abs(z) ** 2
        pf = pushforward(phi, h, mu)
        for g in (lambda z: z ** 2, lambda z: np.abs(1.0 - 0.4 * z) ** -1.5):
            lhs = pf.integrate(g)
            rhs = np.sum(g(phi(mu.points)) * h(mu.points) * mu.masses).item()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_identity_preserves_region_measures(self, rng):
        mu = self._atoms(rng)
        pf = pushforward(Identity(), None, mu)
        centers = np.array([0.4, 0.6, -0.3j, 0.0])
        gaps = 1.0 - np.abs(centers)
        assert np.array_equal(pf.pseudo_disc_masses(centers, 0.3, gaps),
                              mu.pseudo_disc_masses(centers, 0.3, gaps))

    def test_density_support_atomization(self, grid8):
        # the operator case: h = |u|^q against a density weight gives atoms
        # with masses |u|^q * density * node weight
        nu = RadialDensityMeasure.from_power(1.0, grid8)
        u_sq = lambda z: np.abs(z) ** 2
        pf = pushforward(PowerMap(2), u_sq, nu)
        pts, masses = support_arrays(nu)
        assert np.array_equal(pf.points, pts ** 2)
        assert np.allclose(pf.masses, u_sq(pts) * masses, rtol=1e-15)

    def test_grid_pushforward_change_of_variable(self, grid8):
        nu = RadialDensityMeasure.from_power(0.0, grid8)
        pf = pushforward(PowerMap(2), None, nu)
        g = lambda z: (1.0 + z).real
        lhs = pf.integrate(g)
        rhs = grid_sum(grid8, lambda z: g(z ** 2))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @staticmethod
    def whole_support(phi, h, nu):
        """The pushforward's arrays and self-map message from the whole
        support at once, the way it was computed before blocks."""
        pts, masses = support_arrays(nu)
        images = np.asarray(phi(pts), dtype=complex)
        worst = int(np.argmax(np.abs(images)))
        message = (f"map sent {pts[worst]} to {images[worst]} "
                   f"(|.| = {abs(images[worst]):.6f})")
        return images, np.asarray(h(pts), dtype=float) * masses, message

    @pytest.mark.parametrize("kind", ["density", "atoms"])
    def test_independent_of_block_size(self, monkeypatch, grid8, kind):
        """The whole points and masses, the self-map message and min_gap, the
        images' deepest gap, are those of the whole support at once, bit
        for bit, whatever the size of the source's blocks."""
        if kind == "density":
            nu = RadialDensityMeasure.from_power(1.0, grid8)
        else:
            gen = np.random.default_rng(11)
            pts = 0.99 * np.sqrt(gen.uniform(0, 1, 5000)) * np.exp(2j * np.pi * gen.uniform(0, 1, 5000))
            nu = AtomicMeasure(pts, gen.uniform(0, 1, 5000))
        h = lambda z: np.abs(1.0 + 0.5 * z) ** 1.5
        moebius, outward = Moebius(0.3 - 0.2j), lambda z: 1.5 * z
        images, masses, _ = self.whole_support(moebius, h, nu)
        _, _, message = self.whole_support(outward, h, nu)
        for nodes, atoms in [(1 << 10, 1 << 10), (measures._NODE_BLOCK, measures._ATOM_BLOCK),
                             (nu.support_size, nu.support_size)]:
            monkeypatch.setattr(measures, "_NODE_BLOCK", nodes)
            monkeypatch.setattr(measures, "_ATOM_BLOCK", atoms)
            pf = pushforward(moebius, h, nu)
            assert np.array_equal(pf.points.view(float), images.view(float))
            assert np.array_equal(pf.masses, masses)
            assert pf.min_gap == float(np.min(1.0 - np.abs(images)))
            with pytest.raises(SelfMapViolationError) as exc:
                pushforward(outward, h, nu)
            assert str(exc.value) == message

    def test_violation_in_later_block_names_the_same_point(self, monkeypatch, grid8):
        """Only the grid's deep rings, the last blocks of its node order, leave
        the disc; the message names the first point of largest image modulus
        over the whole support."""
        monkeypatch.setattr(measures, "_NODE_BLOCK", 1 << 12)
        nu = RadialDensityMeasure.from_power(1.0, grid8)
        outward = Moebius(0.3 - 0.2j)
        stretch = lambda z: 1.003 * outward(z)
        h = lambda z: 1.0 + np.abs(z)
        images, _, message = self.whole_support(stretch, h, nu)
        off = np.nonzero(np.abs(images) >= 1.0)[0]
        assert len(off) and off[0] >= 4 << 12
        with pytest.raises(SelfMapViolationError) as exc:
            pushforward(stretch, h, nu)
        assert str(exc.value) == message

    def test_negative_density(self, grid8):
        """A negative h raises DomainError, after the self-map check: a map
        that also leaves the disc reports that first."""
        nu = RadialDensityMeasure.from_power(1.0, grid8)
        h = lambda z: np.where(np.abs(z) > 0.99, -1.0, 1.0)
        with pytest.raises(DomainError, match="pushforward density h must be nonnegative"):
            pushforward(Moebius(0.3), h, nu)
        with pytest.raises(SelfMapViolationError):
            pushforward(lambda z: 1.5 * z, h, nu)

    def test_empty_support(self):
        mu = AtomicMeasure(np.array([], dtype=complex), np.array([]))
        pf = pushforward(Moebius(0.3), lambda z: np.abs(z), mu)
        assert isinstance(pf, AtomicMeasure)
        assert pf.support_size == 0 and pf.min_gap == math.inf
        assert list(pf.support_blocks()) == []
        assert pf.points.dtype == complex and len(pf.points) == 0
        assert pf.masses.dtype == float and len(pf.masses) == 0
        assert pf.integrate(lambda z: z + 1.0) == 0.0
        centers = np.array([0.0, 0.5j])
        assert np.array_equal(pf.pseudo_disc_masses(centers, 0.3, 1.0 - np.abs(centers)),
                              [0.0, 0.0])

    def test_integrate_reads_each_block_once(self):
        """integrate reads a pushforward one _ATOM_BLOCK block at a time, so
        phi and h see each of the 100,000 atoms once, and the sum is that of
        the whole support up to rounding."""
        gen = np.random.default_rng(13)
        n = 100_000
        pts = 0.99 * np.sqrt(gen.uniform(0, 1, n)) * np.exp(2j * np.pi * gen.uniform(0, 1, n))
        mu = AtomicMeasure(pts, gen.uniform(0, 1, n))
        moebius, seen = Moebius(0.3 - 0.2j), {"phi": 0, "h": 0}

        def phi(z):
            seen["phi"] += np.size(z)
            return moebius(z)

        def h(z):
            seen["h"] += np.size(z)
            return 1.0 + np.abs(z)

        pf = pushforward(phi, h, mu)
        seen.update(phi=0, h=0)
        g = lambda z: (z + 0.3) ** 3
        got = pf.integrate(g)
        assert seen == {"phi": n, "h": n}
        want = np.sum(g(moebius(pts)) * (1.0 + np.abs(pts)) * mu.masses)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("kind", ["grid", "cloud", "empty"])
    def test_reads_phi_in_the_source_blocks(self, grid8, kind):
        """phi sees the source's own blocks, each once per pass, in the
        checking pass and again in one pseudo-disc query: a grid measure's
        blocks of _NODE_BLOCK nodes, a stored cloud's views of _ATOM_BLOCK
        atoms, and nothing for an empty cloud, whose points are complex."""
        if kind == "grid":
            nu, block = RadialDensityMeasure.from_power(1.0, grid8), measures._NODE_BLOCK
            source = [z for z, _, _ in grid8.blocks()]
        else:
            gen = np.random.default_rng(14)
            n = 100_000 if kind == "cloud" else 0
            pts = 0.99 * np.sqrt(gen.uniform(0, 1, n)) * np.exp(2j * np.pi * gen.uniform(0, 1, n))
            nu, block = AtomicMeasure(pts, gen.uniform(0, 1, n)), measures._ATOM_BLOCK
            source = [pts[lo:lo + block] for lo in range(0, n, block)]
        sizes = [min(block, nu.support_size - lo) for lo in range(0, nu.support_size, block)]
        assert [len(z) for z in source] == sizes and len(sizes) != 1
        moebius, seen = Moebius(0.3 - 0.2j), []

        def phi(z):
            seen.append(z)
            return moebius(z)

        def assert_read_source_blocks():
            assert [len(z) for z in seen] == sizes
            assert all(np.array_equal(z, s) for z, s in zip(seen, source))
            if kind == "cloud":
                assert all(np.shares_memory(z, nu.points) for z in seen)
            seen.clear()

        pf = pushforward(phi, lambda z: 1.0 + np.abs(z), nu)
        assert_read_source_blocks()
        centers = np.array([0.0, 0.5j, -0.9])
        pf.pseudo_disc_masses(centers, 0.3, 1.0 - np.abs(centers))
        assert_read_source_blocks()
        assert pf.points.dtype == complex and len(pf.points) == nu.support_size

    def test_self_map_violation(self, rng):
        # the atom at 0.99 leaves the disc under z -> 1.02 z whatever the draws
        drawn = self._atoms(rng, n=100)
        mu = AtomicMeasure(np.append(drawn.points, 0.99), np.append(drawn.masses, 1.0))
        with pytest.raises(SelfMapViolationError):
            pushforward(lambda z: 1.02 * z, None, mu)


def row_parse(path):
    """Reference reader: one csv.DictReader row and three float() calls per atom."""
    with open(path, newline="") as fh:
        rows = [(float(row["re"]), float(row["im"]), float(row["mass"]))
                for row in csv.DictReader(fh)]
    arr = np.array(rows).reshape(-1, 3)
    return arr[:, 0] + 1j * arr[:, 1], arr[:, 2]


def traced(call):
    """(result, current, peak) traced allocation of call()."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestSupportMemory:
    """The pushforward keeps no support-sized array, and the pseudo-disc
    query sorts one support block at a time: its peak is one block's sorted
    copy plus window temporaries, whatever the support size."""

    PHI = Moebius(0.3 - 0.2j)
    U = Polynomial([0.4, -1.1 + 0.3j, 0.7j, 0.25])

    def h(self, z):
        return np.abs(self.U(z))

    def pushforward_on(self, level):
        """The pushforward of a power density on a grid of the given level,
        after the same call and a query on a small grid keep first-call
        allocations out."""
        small = pushforward(self.PHI, self.h, RadialDensityMeasure.from_power(3.0, QuadratureGrid(4)))
        small.pseudo_disc_masses(np.array([0.5j]), 0.3, np.array([0.5]))
        nu = RadialDensityMeasure.from_power(3.0, QuadratureGrid(level))
        return traced(lambda: pushforward(self.PHI, self.h, nu))

    @staticmethod
    def query_peak(measure):
        """Traced peak of the pseudo-disc query on the 32-angle level-11 mesh
        (2,816 centres) that embedding_ls_criterion reads."""
        ring_gaps = measures._ring_layout(11)[0]
        centers = geometry._ring_points(ring_gaps, np.full(len(ring_gaps), 32))
        gaps = np.repeat(ring_gaps, 32)
        return traced(lambda: measure.pseudo_disc_masses(centers, 0.3, gaps))[2]

    def test_pushforward_holds_no_support_array(self):
        """After pushforward on a grid-9 density (131 k nodes) the traced
        allocations that remain are less than one int32 support array."""
        pf, current, _ = self.pushforward_on(9)
        assert pf.support_size == QuadratureGrid(9).node_count
        assert current < 4 * pf.support_size, current

    def test_query_from_stored_atoms(self):
        """On stored clouds of 131 k and 524 k atoms (grid-9 and grid-11
        pushforwards) the query peaks within 0.5 MB of each other and under
        8 MB, less than 16 B per atom of the larger cloud."""
        clouds = [self.pushforward_on(level)[0] for level in (9, 11)]
        peaks = [self.query_peak(AtomicMeasure(pf.points, pf.masses)) for pf in clouds]
        assert abs(peaks[1] - peaks[0]) < 0.5e6 and peaks[1] < 8e6, peaks

    def test_query_from_pushforward(self):
        """On the streamed grid-9 and grid-11 pushforwards the query, which
        recomputes phi and h a block at a time, peaks within 0.5 MB of each
        other and under 8 MB."""
        peaks = [self.query_peak(self.pushforward_on(level)[0]) for level in (9, 11)]
        assert abs(peaks[1] - peaks[0]) < 0.5e6 and peaks[1] < 8e6, peaks


class TestAtomsCsv:
    @pytest.fixture
    def cells(self):
        """A 17-digit np.savetxt cloud as rows of (re, im, mass) cells."""
        rng = np.random.default_rng(7)
        n = 300
        pts = np.sqrt(rng.uniform(0, 0.998, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([pts.real, pts.imag, rng.uniform(0, 1, n)]),
                   fmt="%.17g", delimiter=",")
        return [line.split(",") for line in buf.getvalue().splitlines()]

    LAYOUTS = {
        "plain": lambda rows: ["re,im,mass"] + [",".join(r) for r in rows],
        "crlf": lambda rows: ["re,im,mass\r"] + [",".join(r) + "\r" for r in rows],
        "quoted": lambda rows: ['"re","im",mass'] + [f'"{a}",{b},"{c}"' for a, b, c in rows],
        "blank_lines": lambda rows: ["re,im,mass", ""] + [
            ",".join(r) + ("\n" if i % 7 == 0 else "") for i, r in enumerate(rows)],
        "reordered_extra": lambda rows: ["mass,tag,im,re,note"] + [
            f"{c},t{i},{b},{a},x,y" for i, (a, b, c) in enumerate(rows)],
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_bulk_parse_matches_row_parse(self, tmp_path, cells, layout):
        path = tmp_path / "atoms.csv"
        path.write_bytes(("\n".join(self.LAYOUTS[layout](cells)) + "\n").encode())
        mu = AtomicMeasure.from_csv(path)
        points, masses = row_parse(path)
        assert len(mu.points) == len(cells)
        assert mu.points.tobytes() == points.tobytes()
        assert mu.masses.tobytes() == masses.tobytes()

    def test_header_only_file_is_empty_and_silent(self, tmp_path, capsys):
        path = tmp_path / "atoms.csv"
        path.write_text("re,im,mass\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = AtomicMeasure.from_csv(path)
        assert len(mu.points) == 0 and len(mu.masses) == 0
        assert capsys.readouterr().err == ""
