"""Pseudohyperbolic geometry and lattices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman.geometry import _band, _polar_rule
from bergman.measures import _disc_params

from bergman import (
    DomainError,
    ResourceLimitError,
    probe_lattice,
    pseudo_disc,
    r_lattice,
    rho,
)

disc_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                                 allow_infinity=False)


class TestRho:
    def test_from_origin(self):
        assert rho(0.0, 0.3 + 0.4j) == pytest.approx(0.5)

    def test_coincident(self):
        assert rho(0.25 + 0.1j, 0.25 + 0.1j) == 0.0

    def test_antipodal_halves(self):
        assert rho(0.5, -0.5) == pytest.approx(0.8)

    @given(a=disc_points, b=disc_points)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        assert rho(a, b) == pytest.approx(rho(b, a), abs=1e-14)

    @given(a=disc_points, b=disc_points, c=disc_points)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert rho(a, c) <= rho(a, b) + rho(b, c) + 1e-12

    @given(a=disc_points, b=disc_points, c=disc_points)
    @settings(max_examples=200, deadline=None)
    def test_moebius_invariance(self, a, b, c):
        ta = (a - c) / (1.0 - np.conj(c) * a)
        tb = (b - c) / (1.0 - np.conj(c) * b)
        assert rho(ta, tb) == pytest.approx(rho(a, b), abs=1e-12)


class TestPseudoDisc:
    def test_origin_center(self):
        d = pseudo_disc(0.0, 0.3)
        assert d.euclid_center == 0.0
        assert d.euclid_radius == pytest.approx(0.3)

    def test_half_half(self):
        d = pseudo_disc(0.5, 0.5)
        assert d.euclid_center == pytest.approx(0.4)
        assert d.euclid_radius == pytest.approx(0.4)

    def test_boundary_has_constant_distance(self, rng):
        theta = np.arange(64) * (2.0 * np.pi / 64)
        for _ in range(50):
            a = np.sqrt(rng.uniform()) * 0.99 * np.exp(2j * np.pi * rng.uniform())
            r = rng.uniform(0.05, 0.95)
            d = pseudo_disc(a, r)
            boundary = d.euclid_center + d.euclid_radius * np.exp(1j * theta)
            assert np.max(np.abs(rho(a, boundary) - r)) < 1e-9

    def test_contains_matches_metric(self, rng):
        a, r = 0.3 + 0.45j, 0.4
        d = pseudo_disc(a, r)
        pts = (rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500))
        pts = pts[np.abs(pts) < 1.0]
        inside = np.abs(pts - d.euclid_center) < d.euclid_radius
        assert np.array_equal(inside, rho(a, pts) < r)

    def test_stays_inside_disc(self):
        d = pseudo_disc(0.99, 0.9)
        assert abs(d.euclid_center) + d.euclid_radius < 1.0
        _, _, gap_outer, _ = _disc_params(np.array([0.99]), np.array([1.0 - 0.99]), 0.9)
        assert gap_outer[0] > 0.0

    def test_radius_domain(self):
        with pytest.raises(DomainError):
            pseudo_disc(0.5, 1.0)

    def test_polar_rule_mass(self):
        d = pseudo_disc(0.6 + 0.1j, 0.35)
        a = np.array([abs(d.center)])
        _, _, gap_outer, _ = _disc_params(a, 1.0 - a, d.radius)
        gaps, weights = _polar_rule(np.array([abs(d.euclid_center)]),
                                    np.array([d.euclid_radius]), gap_outer)
        weights = np.broadcast_to(weights, gaps.shape)
        assert weights.sum() == pytest.approx(d.euclid_radius ** 2, rel=1e-12)
        assert np.all(gaps > 0.0)


class TestLattices:
    def test_covering_at_half(self):
        # the lattice covers down to its depth, 1 - |z| >= 2^-16: draw the
        # points uniformly in area inside that radius, from a generator of
        # the test's own so the draw does not depend on test order
        gen = np.random.default_rng(5150)
        lattice = r_lattice(0.5, depth=16)
        radii = np.sqrt(gen.uniform(0, 1, 10_000)) * (1.0 - 2.0 ** -16)
        pts = radii * np.exp(2j * np.pi * gen.uniform(0, 1, 10_000))
        # bucket lattice nodes by gap so each query only meets nearby rings
        lat_gap = 1.0 - np.abs(lattice)
        order = np.argsort(lat_gap)
        lattice, lat_gap = lattice[order], lat_gap[order]
        for chunk in np.array_split(pts, 40):
            gap = 1.0 - np.abs(chunk)
            lo = np.searchsorted(lat_gap, gap / 8.0)
            hi = np.searchsorted(lat_gap, np.minimum(gap * 8.0, 1.0), side="right")
            for pt, l, h in zip(chunk, lo, hi):
                d = rho(pt, lattice[l:h])
                assert d.size and np.min(d) <= 0.5

    def test_separation(self):
        lattice = r_lattice(0.5, depth=8)
        sample = lattice[::7][:300]
        d = rho(sample[:, None], lattice[None, :])
        d[d == 0.0] = 1.0
        assert np.min(d) >= 0.5 / 5.0

    def test_all_inside(self):
        lattice = r_lattice(0.3, depth=6)
        assert np.all(np.abs(lattice) < 1.0)

    def test_smaller_r_larger_lattice(self):
        assert len(r_lattice(0.2, depth=6)) > len(r_lattice(0.4, depth=6))

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            r_lattice(0.001, depth=16)

    def test_probe_lattice_gaps_exact(self):
        pts, gaps = probe_lattice(depth=6)
        assert np.allclose(1.0 - np.abs(pts), gaps, atol=1e-15)


class TestBand:
    """_band is the one band rule: band k holds the gaps in (2^-(k+1), 2^-k]."""

    def gaps_at_every_power_of_two(self):
        """Every 2^-k, k = 0..1074 (subnormals from k = 1023 on), and both of
        its float neighbours, zero left out."""
        tops = np.ldexp(1.0, -np.arange(1075))
        u = np.concatenate([tops, np.nextafter(tops, 0.0), np.nextafter(tops, 2.0)])
        return u[u > 0.0]

    def test_band_at_least_k_exactly_when_gap_at_most_2_to_minus_k(self):
        u = self.gaps_at_every_power_of_two()
        ks = np.arange(1075)
        got = _band(u)[:, None] >= ks[None, :]
        want = u[:, None] <= np.ldexp(1.0, -ks)[None, :]
        assert np.array_equal(got, want)

    def test_scalar_and_array_agree(self):
        u = self.gaps_at_every_power_of_two()
        assert [int(_band(float(x))) for x in u] == _band(u).tolist()
