"""Radial weight machinery: tail integrals, moments, classification, masses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bergman import (
    DomainError,
    IntegrabilityError,
    QuadratureGrid,
    RadialDensityMeasure,
    RadialWeight,
    classify,
    gamma_exponent,
    pseudo_disc,
)
from bergman import weights


def power_weight(alpha):
    return RadialWeight.power(alpha)


class TestTailIntegral:
    def test_empty_interval_is_zero(self):
        assert power_weight(0.0).tail_integral_at_gap(1 - 1.0) == 0.0

    @pytest.mark.parametrize("alpha,r", [(0.0, 0.5), (1.0, 0.0), (1.0, 0.5),
                                         (-0.5, 0.25), (3.0, 0.9)])
    def test_power_closed_form(self, alpha, r):
        # closed form (1-r)^(alpha+1)/(alpha+1), cross-checked by quadrature
        w = power_weight(alpha)
        expected = (1.0 - r) ** (alpha + 1.0) / (alpha + 1.0)
        oracle, _ = quad(lambda s: (1.0 - s) ** alpha, r, 1.0)
        assert expected == pytest.approx(oracle, rel=1e-9)
        assert w.tail_integral_at_gap(1 - r) == pytest.approx(expected, rel=1e-12)

    def test_smooth_weight_against_quadrature_oracle(self):
        w = RadialWeight.log_power(1.0, 2.0)
        for r in (0.0, 0.3, 0.9, 0.99):
            oracle, _ = quad(
                lambda s: (1.0 - s) * (1.0 - np.log(1.0 - s)) ** 2, r, 1.0,
                epsabs=1e-14, epsrel=1e-13)
            assert w.tail_integral_at_gap(1 - r) == pytest.approx(oracle, rel=1e-8)

    def test_monotone_nonincreasing(self):
        w = RadialWeight.log_power(0.5, 1.0)
        r = np.linspace(0.0, 0.999, 200)
        vals = w.tail_integral_at_gap(1 - r)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_non_integrable_weight_rejected(self):
        with pytest.raises(IntegrabilityError):
            RadialWeight(lambda u: 1.0 / u, name="1/(1-r)")

    def test_table_weight_interpolates(self):
        r = np.linspace(0.0, 1.0, 11)
        w = RadialWeight.from_table(r, np.ones_like(r))
        assert w.tail_integral_at_gap(1 - 0.25) == pytest.approx(0.75, rel=1e-10)

    @pytest.mark.parametrize("kind", ["hat", "rmom"])
    def test_value_does_not_depend_on_the_batch(self, kind):
        """A gap's tail has the same bits alone, in every batch of 1 to 9
        consecutive gaps and in one batch of all 458: its 16 Gauss-Legendre
        terms add up in one fixed order, whatever the batch's size."""
        w = RadialWeight.log_power(1.0, 2.0)
        gaps = 2.0 ** -np.random.default_rng(21).uniform(0.0, 40.0, 458)
        alone = np.array([w._tail_at_gap(kind, u) for u in gaps])
        assert w._tail_at_gap(kind, gaps).tobytes() == alone.tobytes()
        for size in range(1, 10):
            for lo in range(0, len(gaps), size):
                got = w._tail_at_gap(kind, gaps[lo:lo + size])
                assert got.tobytes() == alone[lo:lo + size].tobytes(), (size, lo)

    def test_gauss_legendre_sum_is_within_its_rounding_bound(self):
        """For nonnegative terms, the 16 products added in one order are
        within 17 * 2^-53 of their exact sum, relative (the dot-product bound
        16u / (1 - 16u) with u = 2^-53): checked against exact rational
        arithmetic on terms spread over 60 decades and on steep ones."""
        from fractions import Fraction

        rng = np.random.default_rng(4)
        vals = rng.uniform(0.1, 3.0, (16, 300)) * 10.0 ** rng.uniform(-30, 30, 300)
        vals[:, :100] = np.exp(-1.0 / rng.uniform(0.01, 1.0, (16, 100)))
        vals[:, 100:150] *= 10.0 ** rng.uniform(-8, 8, (16, 50))
        bound = Fraction(17, 2 ** 53)
        for col, value in zip(vals.T, weights._gl_sum(vals)):
            exact = sum(Fraction(x) * Fraction(wj)
                        for x, wj in zip(col.tolist(), weights._GL_W.tolist()))
            assert abs(Fraction(value) - exact) <= bound * exact


class TestTailDensity:
    def test_unit_weight_at_zero(self):
        assert power_weight(0.0).tail_density_at_gap(1 - 0.0) == pytest.approx(1.0)

    def test_linear_weight(self):
        # tail(0.5) = 0.5^2/2 = 0.125, divided by 0.5
        oracle, _ = quad(lambda s: 1.0 - s, 0.5, 1.0)
        assert power_weight(1.0).tail_density_at_gap(1 - 0.5) == pytest.approx(oracle / 0.5)
        assert power_weight(1.0).tail_density_at_gap(1 - 0.5) == pytest.approx(0.25)

    def test_unit_weight_deep(self):
        assert power_weight(0.0).tail_density_at_gap(1 - 0.9) == pytest.approx(1.0)

    def test_domain_error_at_one(self):
        with pytest.raises(DomainError):
            power_weight(0.0).tail_density_at_gap(1 - 1.0)


class TestMoment:
    def test_unit_weight_values(self):
        w = power_weight(0.0)
        assert w.moment(1.0) == pytest.approx(0.5, rel=1e-12)
        assert w.moment(2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    @given(x1=st.floats(1.0, 500.0), x2=st.floats(1.0, 500.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_exponent(self, x1, x2):
        w = power_weight(1.0)
        lo, hi = sorted((x1, x2))
        assert w.moment(lo) >= w.moment(hi) - 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            power_weight(0.0).moment(0.5)


class TestClassify:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 3.0])
    def test_power_weights_are_doubling(self, alpha):
        report = classify(power_weight(alpha), mesh=128)
        lo, hi = report.exponents
        assert lo == pytest.approx(alpha + 1.0, abs=0.05)
        assert hi == pytest.approx(alpha + 1.0, abs=0.05)
        assert report.dhat_constant == pytest.approx(2.0 ** (alpha + 1.0), rel=0.05)
        assert report.upper_doubling and report.lower_doubling and report.doubling

    def test_exponential_weight_not_upper_doubling(self):
        report = classify(RadialWeight.exp_inverse(), mesh=128)
        assert not report.upper_doubling
        assert not report.doubling
        assert report.truncated_at is not None

    def test_doubling_flag_is_conjunction(self):
        for w in (power_weight(0.0), RadialWeight.exp_inverse()):
            report = classify(w, mesh=96)
            assert report.doubling == (report.upper_doubling and report.lower_doubling)

    def test_exponent_order_invariant(self):
        report = classify(RadialWeight.log_power(0.5, 1.5), mesh=128)
        assert report.exponents[0] <= report.exponents[1]

    def test_sandwich_inequality_on_mesh(self):
        # the fitted (alpha, beta, C) must bracket all tail ratios
        w = RadialWeight.log_power(1.0, 1.0)
        report = classify(w, mesh=96)
        lo, hi = report.exponents
        C = report.sandwich_constant * (1.0 + 1e-9)
        u = 2.0 ** (-np.arange(60) / 8.0)
        hat = w.tail_integral_at_gap(u)
        for i in range(0, 50, 7):
            for j in range(i + 1, 55, 9):
                ratio = hat[i] / hat[j]  # r_i <= r_j, gap u_i > u_j
                scale = u[i] / u[j]
                assert ratio <= C * scale ** hi + 1e-12
                assert ratio >= scale ** lo / C - 1e-12

    @pytest.mark.parametrize("mesh", [256, 512])
    @pytest.mark.parametrize("w", [
        RadialWeight.power(1.5),
        RadialWeight.log_power(1.0, 2.0),
        RadialWeight.from_table(np.linspace(0.0, 0.99, 40), 1.0 + np.linspace(0.0, 0.99, 40) ** 2),
    ], ids=["power", "log_power", "table"])
    def test_sandwich_constants_match_pair_formula(self, w, mesh):
        """The sandwich constants, taken one diagonal of mesh pairs at a
        time, are bit for bit the maxima over the whole table of pairs i < j."""
        u, hat, ratios, _ = weights._dyadic_ratio_stats(w, mesh)
        exps = np.log2(ratios[2])
        alpha_hat, beta_hat = float(np.min(exps)), float(np.max(exps))
        idx = np.arange(len(u))
        ii, jj = np.meshgrid(idx, idx, indexing="ij")
        keep = ii < jj
        scale = u[ii[keep]] / u[jj[keep]]
        rat = hat[ii[keep]] / hat[jj[keep]]
        with np.errstate(over="ignore"):
            want = (np.max(rat / scale ** beta_hat), np.max(scale ** alpha_hat / rat))
        got = weights._sandwich_constants(u, hat, alpha_hat, beta_hat)
        assert np.array_equal(got, want)
        assert classify(w, mesh=mesh).sandwich_constant == float(max(1.0, *want))

    def test_moment_class_for_power_weight(self):
        assert classify(power_weight(0.0), mesh=96).moment_class

    def test_mesh_minimum(self):
        with pytest.raises(DomainError):
            classify(power_weight(0.0), mesh=32)


class TestWeightedArea:
    def test_whole_disc_unit(self, unit_weight):
        assert unit_weight.disc_mass() == pytest.approx(1.0)

    def test_carleson_square_half(self, unit_weight):
        # (1/pi) * (1-|z|) * int_{1/2}^1 r dr = 3/(16 pi)
        got = unit_weight.carleson_mass_at_gap(0.5)
        assert got == pytest.approx(3.0 / (16.0 * math.pi), rel=1e-10)

    def test_square_at_zero_is_disc(self, unit_weight):
        assert unit_weight.carleson_mass_at_gap(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_square_mass_power_scaling(self, alpha):
        # omega(S(z)) comparable to (1-|z|)^(2+alpha) toward the boundary
        w = power_weight(alpha)
        rho = 1.0 - 2.0 ** (-np.arange(2, 14))
        masses = w.carleson_mass_at_gap(1 - rho)
        ratios = masses / (1.0 - rho) ** (2.0 + alpha)
        assert np.max(ratios) / np.min(ratios) < 1.5

    def test_square_mass_vs_tail_product(self):
        # omega(S(z)) within one multiplicative constant of tail(|z|)(1-|z|)
        w = power_weight(1.0)
        rho = 1.0 - 2.0 ** (-np.arange(1, 20))
        ratios = w.carleson_mass_at_gap(1 - rho) / (
            w.tail_integral_at_gap(1 - rho) * (1.0 - rho))
        assert np.max(ratios) / np.min(ratios) < 2.0

    def test_grid_route_matches_radial_route(self):
        # the indicator sum is angular-resolution limited, so compare on a
        # grid with a fine angular base
        w = RadialWeight.power(1.0)
        grid = QuadratureGrid(9, angular_base=64)
        dens = np.repeat(w.density_at_gap(grid.ring_gaps) * grid.ring_node_weights,
                         grid.ring_counts)
        z = np.concatenate([nodes for nodes, _, _ in grid.blocks()])
        square = (np.abs(z) >= 0.5) & (np.abs(np.angle(z)) < 0.25)
        assert np.sum(dens[square]) == pytest.approx(w.carleson_mass_at_gap(0.5), rel=0.03)
        d = pseudo_disc(0.4 + 0.2j, 0.4)
        disc = np.abs(z - d.euclid_center) < d.euclid_radius
        centers = np.array([d.center])
        exact = RadialDensityMeasure.from_weight(w, grid).pseudo_disc_masses(
            centers, d.radius, 1.0 - np.abs(centers))[0]
        assert np.sum(dens[disc]) == pytest.approx(exact, rel=0.03)


class TestGammaExponent:
    def test_unit_weight_p2(self):
        # fitted upper exponent 1, so 2*(1+2)/2
        assert gamma_exponent(power_weight(0.0), 2.0) == pytest.approx(3.0, abs=0.1)

    def test_homogeneous_in_p(self):
        w = power_weight(1.0)
        g1 = gamma_exponent(w, 1.0)
        g2 = gamma_exponent(w, 2.0)
        assert g2 == pytest.approx(g1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("w", [
        RadialWeight.power(-0.5), RadialWeight.power(0.0), RadialWeight.power(2.5),
        RadialWeight.log_power(1.0, 2.0), RadialWeight.log_power(1.0, -1.0),
        RadialWeight.from_table(np.linspace(0.0, 0.99, 40), 1.0 + np.linspace(0.0, 0.99, 40) ** 2),
        RadialWeight.exp_inverse(),  # its tail underflows: a truncated mesh
    ], ids=["power-0.5", "power0", "power2.5", "log_power1,2", "log_power1,-1", "table",
            "exp_inverse"])
    def test_is_the_classified_upper_exponent(self, w):
        """gamma_exponent reads the D-hat ratios alone, and its value is the
        one from the upper exponent of the whole classify(w, 128), bit for
        bit."""
        beta = classify(w, 128).exponents[1]
        for p in (0.5, 2.0, 3.0):
            assert gamma_exponent(w, p) == 2.0 * (beta + 2.0) / p
