"""Analytic functions, exact derivatives, self-maps, norms."""

import math

import numpy as np
import pytest

from bergman import (
    ConformalPower,
    DegenerateBasepointError,
    Identity,
    MapComposition,
    Moebius,
    OperatorSpec,
    Polynomial,
    PowerMap,
    RadialWeight,
    Scale,
    apply_operator,
    bergman_norm,
)
from bergman import test_function as probe_function

# 4th-order central stencils, Richardson-extrapolated over h and h/2
_STENCILS = {
    1: ({-2: 1, -1: -8, 1: 8, 2: -1}, 12.0),
    2: ({-2: -1, -1: 16, 0: -30, 1: 16, 2: -1}, 12.0),
    3: ({-3: 1, -2: -8, -1: 13, 1: -13, 2: 8, 3: -1}, 8.0),
    4: ({-3: -1, -2: 12, -1: -39, 0: 56, 1: -39, 2: 12, 3: -1}, 6.0),
}
_STEPS = {1: 4e-3, 2: 6e-3, 3: 8e-3, 4: 1.6e-2}


def _stencil(f, n, z, h):
    coeffs, denom = _STENCILS[n]
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for k, c in coeffs.items():
        acc = acc + c * f(z + k * h)
    return acc / (denom * h ** n)


def central_diff(f, n, z):
    h = _STEPS[n]
    return (16.0 * _stencil(f, n, z, h / 2) - _stencil(f, n, z, h)) / 15.0


class TestDerivEval:
    def test_cubic_second_derivative(self):
        f = Polynomial([0, 0, 0, 1.0])
        assert f.eval_deriv(2, 0.5) == pytest.approx(3.0)

    def test_conformal_power_first_derivative(self):
        f = ConformalPower(0.5, 2.0)
        assert f.eval_deriv(1, 0.0) == pytest.approx(0.25)

    def test_order_zero_is_evaluation(self, rng):
        f = ConformalPower(0.3 + 0.2j, 1.5, scale=2.0)
        z = 0.4 - 0.1j
        assert f.eval_deriv(0, z) == f(z)

    def test_beyond_degree_vanishes(self):
        f = Polynomial([1.0, 2.0, 3.0])
        assert f.eval_deriv(3, 0.7) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_finite_differences(self, rng, n):
        # uniform relative accuracy over 100 interior points; n <= 2 also
        # holds pointwise
        funcs = [
            Polynomial(rng.normal(size=7) + 1j * rng.normal(size=7)),
            ConformalPower(0.4 + 0.3j, 2.5, scale=1.5),
        ]
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        for f in funcs:
            exact = f.eval_deriv(n, pts)
            approx = central_diff(f, n, pts)
            sup = np.max(np.abs(exact))
            assert np.max(np.abs(exact - approx)) < 1e-6 * sup
            if n <= 2:
                scale = np.maximum(np.abs(exact), 1e-3 * sup)
                assert np.max(np.abs(exact - approx) / scale) < 1e-6


def _bits(z):
    """The float pairs of a complex value or array, for bitwise comparison."""
    return np.atleast_1d(np.asarray(z, dtype=complex)).view(float)


def _sample_points(rng, shape):
    r = 0.999 * np.sqrt(rng.uniform(0, 1, shape))
    return r * np.exp(2j * np.pi * rng.uniform(0, 1, shape))


class TestInPlaceKernels:
    """The in-place Horner and Moebius kernels give the bits of the plain
    numpy expressions they replaced."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_horner_matches_polyval(self, n):
        rng = np.random.default_rng(101 + n)
        P = np.polynomial.polynomial
        inputs = [_sample_points(rng, shape) for shape in ((), (1,), (37,), (5, 9))]
        for degree in range(21):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            f = Polynomial(coeffs)
            c = coeffs if n == 0 else P.polyder(coeffs, n)
            for z in inputs:
                got = f.eval_deriv(n, z)
                assert np.shape(got) == np.shape(z)
                if n >= len(coeffs):
                    assert not np.any(got)
                    continue
                want = P.polyval(np.asarray(z, dtype=complex), c)
                assert type(got) is type(want)
                assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("c", [0.35 * np.exp(2.1j), 0.6j, -0.2, 0.0])
    def test_moebius_matches_plain_formula(self, c):
        rng = np.random.default_rng(202)
        phi = Moebius(c)
        for z in (_sample_points(rng, ()), _sample_points(rng, (1,)),
                  _sample_points(rng, (41,)), _sample_points(rng, (3, 7)), 0.5 - 0.25j):
            za = np.asarray(z, dtype=complex)
            want = (za - phi.c) / (1.0 - np.conj(phi.c) * za)
            got = phi(z)
            assert type(got) is type(want) and np.shape(got) == np.shape(za)
            assert np.array_equal(_bits(got), _bits(want))

    def test_moebius_leaves_its_input_alone(self):
        z = _sample_points(np.random.default_rng(203), (64,))
        before = z.copy()
        Moebius(0.3 + 0.1j)(z)
        assert np.array_equal(z, before)


class TestSelfMaps:
    @pytest.mark.parametrize("phi,expected", [
        (Identity(), 1.0),
        (Scale(0.5), 0.5),
        (PowerMap(3), 1.0),
        (Moebius(0.4), 1.0),
        (MapComposition([Moebius(0.3), Scale(0.5)]), 0.5 * (1.0 + 0.3) / 1.3),
    ])
    def test_sup_abs(self, phi, expected):
        assert phi.sup_abs() == pytest.approx(expected)

    def test_images_stay_inside(self, grid8):
        for phi in (Scale(1.0), PowerMap(4), Moebius(0.6j)):
            assert np.max(np.abs(phi(grid8.node_range(0, grid8.node_count)))) < 1.0


class TestBergmanNorm:
    def test_constant_function(self, unit_weight, grid8):
        for p in (0.5, 1.0, 2.0, 4.0):
            assert bergman_norm(Polynomial([1.0]), p, unit_weight, grid8) == pytest.approx(1.0)

    def test_linear_function(self, unit_weight, grid8):
        got = bergman_norm(Polynomial([0, 1.0]), 2.0, unit_weight, grid8)
        assert got == pytest.approx(math.sqrt(0.5), rel=1e-10)

    def test_test_function_norms_bounded(self, grid10):
        # across basepoints up to 0.999 the probe norms stay in one bracket
        # and settle as |a| -> 1
        for alpha in (0.0, 1.0):
            w = RadialWeight.power(alpha)
            gamma = 2.0 * (alpha + 3.0) / 2.0
            norms = [bergman_norm(probe_function(a, gamma, 2.0, w), 2.0, w, grid10)
                     for a in (0.0, 0.5, 0.9, 0.99, 0.999)]
            assert max(norms) / min(norms) < 4.0
            assert norms[-1] == pytest.approx(norms[-2], rel=0.05)


class TestOperator:
    def test_plain_composition(self, rng):
        f = Polynomial([1.0, 2.0, -1.0j])
        op = OperatorSpec(Moebius(0.3), Polynomial([1.0]), 0)
        z = 0.5 * np.exp(0.4j)
        assert apply_operator(op, f)(z) == pytest.approx(f(Moebius(0.3)(z)))

    def test_weighted_composition(self):
        u = Polynomial([0.5, 0.5])
        op = OperatorSpec(Scale(0.5), u, 0)
        f = Polynomial([0, 0, 1.0])
        z = 0.6
        assert apply_operator(op, f)(z) == pytest.approx(u(z) * (0.5 * z) ** 2)

    def test_differentiation_composition_chain_rule(self, rng):
        # with u = phi' the operator is the derivative of the composition
        c = 0.35
        phi = Moebius(c)

        def phi_prime(z):
            return (1.0 - abs(c) ** 2) / (1.0 - np.conj(c) * z) ** 2

        f = Polynomial(rng.normal(size=6))
        op_fn = apply_operator(OperatorSpec(phi, phi_prime, 1), f)
        pts = 0.7 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
        h = 1e-5
        fd = (f(phi(pts + h)) - f(phi(pts - h))) / (2 * h)
        assert np.max(np.abs(op_fn(pts) - fd)) < 1e-7

    def test_negative_order_rejected(self):
        with pytest.raises(Exception):
            OperatorSpec(Identity(), Polynomial([1.0]), -1)


class TestTestFunction:
    def test_center_is_constant(self, unit_weight):
        f = probe_function(0.0, 3.0, 2.0, unit_weight)
        # normalization by the whole-disc mass, which is 1 here
        assert f(0.3 + 0.2j) == pytest.approx(1.0)
        assert f(0.0) == pytest.approx(1.0)

    def test_vanishes_on_compacts_as_base_approaches_boundary(self, unit_weight):
        z = 0.5 * np.exp(1j * np.linspace(0, 2 * np.pi, 32))
        sup_at = []
        for a in (0.9, 0.99, 0.999):
            f = probe_function(a, 3.0, 2.0, unit_weight)
            sup_at.append(np.max(np.abs(f(z))))
        assert sup_at[0] > sup_at[1] > sup_at[2]

    def test_degenerate_basepoint(self):
        w = RadialWeight.exp_inverse()
        with pytest.raises(DegenerateBasepointError):
            probe_function(1.0 - 1e-9, 3.0, 2.0, w)
