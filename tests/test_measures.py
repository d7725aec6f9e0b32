"""Grids, disc measures, and the weighted pushforward."""

import csv
import io
import math
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
    PowerMap,
    QuadratureGrid,
    RadialDensityMeasure,
    RadialWeight,
    ResourceLimitError,
    Identity,
    maximal_function,
    pseudo_disc,
    pushforward,
    r_lattice,
    rho,
)
from bergman import geometry, measures
from bergman.criteria import _MASS_FLOOR
from bergman.errors import SelfMapViolationError


def grid_sum(grid, f):
    """The grid's quadrature of f: node values against the area weights."""
    return float(np.sum(f(grid.nodes) * grid.weights))


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
        assert abs(grid.weights.sum() - 1.0) < 1e-10

    def test_nodes_inside_disc(self, grid8):
        assert np.all(np.abs(grid8.nodes) < 1.0)
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
        assert mu.pseudo_disc_masses(np.array([0j]), 0.5)[0] == 1.0

    def test_area_of_pseudo_disc_at_origin(self, grid8):
        mu = RadialDensityMeasure.from_power(0.0, grid8)
        for r in (0.2, 0.5, 0.8):
            got = mu.pseudo_disc_masses(np.array([0j]), r)[0]
            assert got == pytest.approx(r * r, rel=1e-10)

    def test_power_density_scaling(self, grid8):
        # mu(Delta(z, r)) comparable to (1-|z|)^(beta+2) toward the boundary
        beta = 1.5
        mu = RadialDensityMeasure.from_power(beta, grid8)
        rho_vals = 1.0 - 2.0 ** (-np.arange(6, 16))
        masses = mu.pseudo_disc_masses(rho_vals.astype(complex), 0.4)
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
        got = mu.pseudo_disc_masses(np.array([a + 0j]), r)[0]
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_atomic_disc_masses_vs_bruteforce(self, rng):
        pts = np.sqrt(rng.uniform(0, 1, 3000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 3000))
        masses = rng.uniform(0, 1, 3000)
        mu = AtomicMeasure(pts, masses)
        centers = np.array([0.1 + 0.2j, 0.85, -0.6j, 0.97])
        got = mu.pseudo_disc_masses(centers, 0.3)
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
        got = mu.pseudo_disc_masses(centers, r)
        for i, c in enumerate(centers):
            expect = masses[rho(c, pts) < r].sum()
            assert got[i] == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_atomic_disc_masses_across_chunks(self, monkeypatch):
        # windows split across candidate chunks and centres across blocks
        monkeypatch.setattr(measures, "_CANDIDATE_CHUNK", 7)
        monkeypatch.setattr(measures, "_CENTER_BLOCK", 3)
        rng = np.random.default_rng(8)
        pts = np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
        masses = rng.uniform(0, 1, 500)
        centers = np.concatenate([[0.0, -0.6 + 1e-9j],
                                  0.8 * np.exp(2j * np.pi * rng.uniform(0, 1, 9))])
        got = AtomicMeasure(pts, masses).pseudo_disc_masses(centers, 0.5)
        expect = [masses[rho(c, pts) < 0.5].sum() for c in centers]
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2000])
    def test_support_index_matches_plain_construction(self, n):
        """The index builds its sort keys in one buffer; keys, points, masses
        and band range are those of the plain expression it replaced."""
        rng = np.random.default_rng(9 + n)
        pts = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        if n > 1:
            edges = 1.0 - 2.0 ** -np.arange(1, 13)  # gaps exactly 2^-k, angles 0 and pi
            pts = np.concatenate([pts, edges + 0j, -edges + 0j, [0j]])
        masses = rng.uniform(0, 1, len(pts))
        index = measures._SupportIndex(pts, masses)
        bands = geometry._band(1.0 - np.abs(pts))
        keys = measures._BAND_STRIDE * bands + np.angle(pts)
        order = np.argsort(keys)
        assert np.array_equal(index.keys, keys[order])
        assert np.array_equal(index.points.view(float), pts[order].view(float))
        assert np.array_equal(index.masses, masses[order])
        assert index.band_range == ((bands.min(), bands.max()) if n else None)

    def test_grid_support_disc_masses_vs_bruteforce(self, grid8):
        # grid-shaped support: evenly spaced rings, many tied keys
        rng = np.random.default_rng(5)
        density = RadialWeight(lambda u: 1.0 + u * u, allow_zero=True)
        mu = AtomicMeasure(*RadialDensityMeasure(density, grid8).support_nodes())
        pts, masses = mu.support_nodes()
        centers = np.concatenate([
            [0.0, -0.6 + 1e-9j, 0.2j, 0.97],
            rng.uniform(-0.7, 0.7, 8) + 1j * rng.uniform(-0.7, 0.7, 8),
        ])
        for r in (0.05, 0.3, 0.9):
            got = mu.pseudo_disc_masses(centers, r)
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
        zero = RadialWeight(lambda u: np.zeros_like(u), allow_zero=True)
        mu = RadialDensityMeasure(zero, grid8, name="zero")
        assert mu.carleson_masses(0.0)[0] == 0.0
        assert mu.pseudo_disc_masses(np.array([0.5 + 0j]), 0.3)[0] == 0.0

    def test_weight_measure_shares_its_weight(self, grid8, monkeypatch):
        # from_weight builds no RadialWeight of its own; its masses equal, bit
        # for bit, those of a measure on a second weight built from w's density
        w = RadialWeight.log_power(1.0, 2.0)
        rebuilt = RadialDensityMeasure(RadialWeight(w.density_at_gap, allow_zero=True), grid8)
        built = []
        init = RadialWeight.__init__
        with monkeypatch.context() as m:
            m.setattr(RadialWeight, "__init__",
                      lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
            mu = RadialDensityMeasure.from_weight(w, grid8)
        assert built == []
        for got, want in zip(mu.support_nodes(), rebuilt.support_nodes()):
            assert np.array_equal(got, want)
        centers = np.array([0.0, 0.3 - 0.2j, -0.9j, 0.999, 1 - 2.0 ** -20])
        for r in (0.1, 0.3, 0.9):
            assert np.array_equal(mu.pseudo_disc_masses(centers, r),
                                  rebuilt.pseudo_disc_masses(centers, r))
        assert np.array_equal(mu.carleson_masses(centers), rebuilt.carleson_masses(centers))

    def test_density_support_keeps_no_node_masses(self, grid8):
        # support_nodes computes the masses on each call; the measure holds
        # no node-sized array between calls
        mu = RadialDensityMeasure.from_power(1.0, grid8)
        pts, first = mu.support_nodes()
        assert not any(np.size(v) >= grid8.node_count for v in vars(mu).values())
        _, second = mu.support_nodes()
        assert len(first) == len(pts) == grid8.node_count
        assert np.array_equal(first, second)


class TestCarlesonMasses:
    EDGES = 1.0 - 2.0 ** -np.arange(1, 13)  # gaps exactly 2^-k

    def bases(self, rng):
        theta = 2 * np.pi * rng.uniform(0, 1, 6)
        return np.concatenate([
            [0.0, 0.5, 0.3, 0.72, 0.5 * np.exp(1.3j)],  # the membership examples
            [-0.6 + 1e-9j, -0.6 - 1e-9j, -0.9, np.conj(-0.9 + 0j), -(1 - 2.0 ** -6),
             0.9 * np.exp(3.0j), 0.9 * np.exp(-3.0j)],  # windows that wrap at +-pi
            self.EDGES, self.EDGES * np.exp(0.3j),
            (1.0 - 10.0 ** rng.uniform(-5, 0, 6)) * np.exp(1j * theta),
        ])

    def cloud(self, rng, n, bases):
        """n random atoms graded toward the boundary, plus the edge cases."""
        pts = (1.0 - 10.0 ** rng.uniform(-6, 0, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        examples = [0.75 * np.exp(0.1j), 0.5 * np.exp(0.05j), 0.5,  # membership
                    0.75 * np.exp(1.4j), 0.75 * np.exp(1.6j),  # rotation
                    0.0, 0.5j, -0.99]
        return np.concatenate([
            pts, examples, self.EDGES + 0j, -self.EDGES + 0j,  # angle +pi
            np.conj(-self.EDGES + 0j),  # angle -pi
            bases, np.conj(bases),  # atoms exactly on a square's radial edge
        ])

    @pytest.mark.parametrize("chunk, block", [(None, None), (7, 3)])
    def test_atomic_vs_bruteforce(self, monkeypatch, chunk, block):
        if chunk:  # windows split across candidate chunks and bases across blocks
            monkeypatch.setattr(measures, "_CANDIDATE_CHUNK", chunk)
            monkeypatch.setattr(measures, "_CENTER_BLOCK", block)
        rng = np.random.default_rng(11)
        bases = self.bases(rng)
        pts = self.cloud(rng, 2000, bases)
        masses = rng.uniform(0, 1, len(pts))
        got = AtomicMeasure(pts, masses).carleson_masses(bases)
        expect = [masses[in_square(a, pts)].sum() for a in bases]
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)
        counts = AtomicMeasure(pts, np.ones(len(pts))).carleson_masses(bases)
        assert np.array_equal(counts, [np.count_nonzero(in_square(a, pts)) for a in bases])

    def test_empty_cloud(self):
        mu = AtomicMeasure(np.array([], dtype=complex), np.array([]))
        assert np.array_equal(mu.carleson_masses([0.0, 0.5, -0.9j]), np.zeros(3))

    def test_maximal_function_matches_square_loop(self):
        """maximal_function against the per-square loop it replaced."""
        rng = np.random.default_rng(12)
        n = 3000
        pts = np.sqrt(rng.uniform(0, 0.999, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        mu = AtomicMeasure(pts, rng.uniform(0, 1, n))
        w = RadialWeight.power(1.0)
        lattice = r_lattice(0.5, depth=12)

        def loop(z):
            cands = np.concatenate([[0j], lattice])
            mods = np.abs(cands)
            dphi = np.abs((np.angle(z) - np.angle(cands) + math.pi) % (2 * math.pi) - math.pi)
            adm = cands[(mods == 0.0) | ((abs(z) >= mods) & (dphi < (1.0 - mods) / 2.0))]
            w_masses = w.carleson_mass_at_gap(1.0 - np.abs(adm))
            mu_masses = np.array([mu.masses[in_square(a, mu.points)].sum() for a in adm])
            ok = w_masses > _MASS_FLOOR
            return float(np.max(mu_masses[ok] / w_masses[ok]))

        for z in (0.0, 0.5, 0.3 - 0.8j, 0.99 * np.exp(2.0j), -0.999):
            assert maximal_function(mu, w, 1.0, z) == pytest.approx(loop(z), rel=1e-12)


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
        assert np.array_equal(pf.pseudo_disc_masses(centers, 0.3),
                              mu.pseudo_disc_masses(centers, 0.3))
        assert np.array_equal(pf.carleson_masses(centers), mu.carleson_masses(centers))

    def test_density_support_atomization(self, grid8):
        # the operator case: h = |u|^q against a density weight gives atoms
        # with masses |u|^q * density * node weight
        nu = RadialDensityMeasure.from_power(1.0, grid8)
        u_sq = lambda z: np.abs(z) ** 2
        pf = pushforward(PowerMap(2), u_sq, nu)
        pts, masses = nu.support_nodes()
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
        pts, masses = nu.support_nodes()
        images = np.asarray(phi(pts), dtype=complex)
        worst = int(np.argmax(np.abs(images)))
        message = (f"map sent {pts[worst]} to {images[worst]} "
                   f"(|.| = {abs(images[worst]):.6f})")
        return images, np.asarray(h(pts), dtype=float) * masses, message

    @pytest.mark.parametrize("kind", ["density", "atoms"])
    def test_independent_of_block_size(self, monkeypatch, grid8, kind):
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
        for block in (1 << 10, measures._NODE_BLOCK, nu.support_size):
            monkeypatch.setattr(measures, "_NODE_BLOCK", block)
            pf = pushforward(moebius, h, nu)
            assert np.array_equal(pf.points, images)
            assert np.array_equal(pf.masses, masses)
            with pytest.raises(SelfMapViolationError) as exc:
                pushforward(outward, h, nu)
            assert str(exc.value) == message

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
