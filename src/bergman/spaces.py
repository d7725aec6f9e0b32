"""Analytic functions, self-maps of the disc, and norm computations.

The function algebra is deliberately small - polynomials and conformal
powers scale * ((1-|a|)/(1 - conj(a) z))^gamma - so that n-th derivatives
are available in closed form.  Derivative accuracy drives
every criterion downstream, which is why arbitrary closures are not
accepted.  The principal branch of the complex power is unambiguous here:
1 - conj(a) z has positive real part whenever a and z lie in the disc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasepointError, DomainError, SelfMapViolationError

__all__ = [
    "AnalyticFunction",
    "Polynomial",
    "ConformalPower",
    "SelfMap",
    "Identity",
    "Scale",
    "PowerMap",
    "Moebius",
    "MapComposition",
    "OperatorSpec",
    "apply_operator",
    "bergman_norm",
    "norm_against_measure",
    "test_function",
]


class AnalyticFunction:
    """Base class: evaluable on complex arrays, with exact n-th derivatives."""

    def __call__(self, z):
        return self.eval_deriv(0, z)

    def eval_deriv(self, n, z):
        raise NotImplementedError

    def abs_deriv(self, n, z):
        """|f^(n)(z)|; a subclass with a closed form for the modulus may
        override it."""
        return np.abs(self.eval_deriv(n, z))


class Polynomial(AnalyticFunction):
    """Finite Taylor polynomial with complex coefficients (ascending order)."""

    def __init__(self, coeffs):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if coeffs.ndim != 1:
            raise DomainError("polynomial coefficients must be a 1-d sequence")
        self.coeffs = coeffs

    def eval_deriv(self, n, z):
        if n < 0:
            raise DomainError("derivative order must be nonnegative")
        z = np.asarray(z, dtype=complex)
        if n >= len(self.coeffs):
            return np.zeros_like(z)
        c = self.coeffs if n == 0 else np.polynomial.polynomial.polyder(self.coeffs, n)
        if z.size == 1:
            # numpy's in-place complex product on one element (a 0-d input
            # too) rounds unlike its array loop, and polyval's does not
            return np.polynomial.polynomial.polyval(z, c)
        # Horner in one output buffer: the steps of polyval, without a
        # temporary per coefficient
        out = np.full(z.shape, c[-1], dtype=complex)
        for ck in c[-2::-1]:
            out *= z
            out += ck
        return out

    def __repr__(self):
        return f"Polynomial(deg={len(self.coeffs) - 1})"


class ConformalPower(AnalyticFunction):
    """scale * ((1-|a|) / (1 - conj(a) z))^gamma.

    The n-th derivative is c_n (1 - conj(a) z)^(-gamma-n), with c_n =
    scale (1-|a|)^gamma conj(a)^n gamma (gamma+1) ... (gamma+n-1); its
    modulus |c_n| exp(-(gamma+n) log|1 - conj(a) z|) depends on z through
    one real number, so abs_deriv takes it without a complex power.
    """

    def __init__(self, base, gamma, scale=1.0):
        base = complex(base)
        if abs(base) >= 1.0:
            raise DomainError("conformal power base must lie in the disc")
        if gamma <= 0:
            raise DomainError("conformal power exponent must be positive")
        self.base = base
        self.gamma = float(gamma)
        self.scale = complex(scale)

    def _coef(self, n):
        """c_n, the factor of the n-th derivative before the power."""
        if n < 0:
            raise DomainError("derivative order must be nonnegative")
        rising = 1.0
        for i in range(n):
            rising *= self.gamma + i
        return (
            self.scale
            * (1.0 - abs(self.base)) ** self.gamma
            * np.conj(self.base) ** n
            * rising
        )

    def eval_deriv(self, n, z):
        coef = self._coef(n)
        z = np.asarray(z, dtype=complex)
        return coef * (1.0 - np.conj(self.base) * z) ** (-(self.gamma + n))

    def abs_deriv(self, n, z):
        coef = abs(self._coef(n))  # 0 for n >= 1 at a = 0, where |1 - conj(a) z| = 1
        z = np.asarray(z, dtype=complex)
        w = np.conj(self.base) * z.reshape(-1)  # in-place steps need an array, also 0-d
        np.subtract(1.0, w, out=w)
        out = np.abs(w)
        np.log(out, out=out)
        out *= -(self.gamma + n)
        np.exp(out, out=out)
        out *= coef
        return out.reshape(z.shape)[()]

    def __repr__(self):
        return f"ConformalPower(a={self.base}, gamma={self.gamma}, scale={self.scale})"


# ---------------------------------------------------------------------------
# self-maps
# ---------------------------------------------------------------------------

class SelfMap:
    """Analytic self-map of the disc with a sup bound."""

    def __call__(self, z):
        raise NotImplementedError

    def image_radius(self, s):
        """sup of |phi| over the closed disc of radius s (structural)."""
        raise NotImplementedError

    def sup_abs(self):
        return self.image_radius(1.0)


class Identity(SelfMap):
    def __call__(self, z):
        return np.asarray(z, dtype=complex)

    def image_radius(self, s):
        return s

    def __repr__(self):
        return "Identity()"


class Scale(SelfMap):
    def __init__(self, ratio):
        if not (0.0 < ratio <= 1.0):
            raise DomainError("scale ratio must lie in (0, 1]")
        self.ratio = float(ratio)

    def __call__(self, z):
        return self.ratio * np.asarray(z, dtype=complex)

    def image_radius(self, s):
        return self.ratio * s

    def __repr__(self):
        return f"Scale({self.ratio})"


class PowerMap(SelfMap):
    def __init__(self, k):
        if int(k) != k or k < 1:
            raise DomainError("power map exponent must be an integer >= 1")
        self.k = int(k)

    def __call__(self, z):
        return np.asarray(z, dtype=complex) ** self.k

    def image_radius(self, s):
        return s ** self.k

    def __repr__(self):
        return f"PowerMap({self.k})"


class Moebius(SelfMap):
    """Disc automorphism z -> (z - c) / (1 - conj(c) z)."""

    def __init__(self, c):
        c = complex(c)
        if abs(c) >= 1.0:
            raise DomainError("Moebius parameter must lie in the disc")
        self.c = c

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)  # in-place steps need an array, also for 0-d input
        den = np.conj(self.c) * flat
        np.subtract(1.0, den, out=den)
        out = flat - self.c
        out /= den
        return out.reshape(z.shape)[()]

    def image_radius(self, s):
        return (s + abs(self.c)) / (1.0 + s * abs(self.c))

    def __repr__(self):
        return f"Moebius({self.c})"


class MapComposition(SelfMap):
    """Apply the listed maps in order: z -> maps[-1](... maps[0](z))."""

    def __init__(self, maps):
        self.maps = list(maps)
        if not self.maps:
            raise DomainError("composition needs at least one map")

    def __call__(self, z):
        out = np.asarray(z, dtype=complex)
        for m in self.maps:
            out = m(out)
        return out

    def image_radius(self, s):
        for m in self.maps:
            s = m.image_radius(s)
        return s

    def __repr__(self):
        return f"MapComposition({self.maps})"


@dataclass(frozen=True)
class OperatorSpec:
    """u * (f^{(n)} o phi): composition for n=0, u==1; weighted composition
    for n=0; differentiation-composition for n >= 1."""

    phi: SelfMap
    u: AnalyticFunction
    n: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("derivative order must be nonnegative")


def apply_operator(op, f):
    """The function z -> u(z) * f^{(n)}(phi(z)), vectorized."""

    def g(z):
        z = np.asarray(z, dtype=complex)
        w = op.phi(z)
        if np.any(np.abs(w) >= 1.0):
            raise SelfMapViolationError("self-map left the open disc")
        return op.u(z) * f.eval_deriv(op.n, w)

    return g


# ---------------------------------------------------------------------------
# norms and test functions
# ---------------------------------------------------------------------------

def _ring_pass(functions, grid, p, ring_dens, orders=()):
    """One pass of a family of analytic functions over the grid's nodes,
    read a block at a time (grid.blocks) and shared by the family, so no
    whole-grid array is made and each node is built once.

    Returns (sums, peaks).  sums[i, d] is the sum over the nodes of
    |f_i|^p times the density ring_dens[d] of the node's ring times the
    node's weight, the blocks' sums added in block order.  peaks[i, j, k]
    is the largest |f_i^(n)| on ring k for n = orders[j].  The moduli come
    from f_i.abs_deriv, one order at a time.  |f_i|^p overflows to inf
    quietly: the caller reads a norm that is not finite.
    """
    if p <= 0:
        raise DomainError("p must be positive")
    ring_dens = np.reshape(ring_dens, (len(ring_dens), len(grid.ring_gaps)))
    peaks = np.zeros((len(functions), len(orders), len(grid.ring_gaps)))
    sums = np.zeros((len(functions), len(ring_dens)))
    for z, rings, taken in grid.blocks():
        starts = np.cumsum(taken) - taken
        node_dens = np.repeat(ring_dens[:, rings], taken, axis=1)
        node_w = np.repeat(grid.ring_node_weights[rings], taken)
        for i, f in enumerate(functions):
            vals = f.abs_deriv(0, z)
            for j, n in enumerate(orders):  # one order's moduli alive at a time
                ring_max = np.maximum.reduceat(vals if n == 0 else f.abs_deriv(n, z), starts)
                peaks[i, j, rings] = np.maximum(peaks[i, j, rings], ring_max)
            with np.errstate(over="ignore"):
                sums[i] += np.sum(vals ** p * node_dens * node_w, axis=-1)
    return sums, peaks


def bergman_norm(f, p, w, grid):
    """(int |f|^p w dA)^(1/p) on the grid, in one pass over its nodes."""
    sums, _ = _ring_pass([f], grid, p, [w.density_at_gap(grid.ring_gaps)])
    return float(sums[0, 0] ** (1.0 / p))


def norm_against_measure(g, q, mu):
    """(int |g|^q d(mu))^(1/q) over the measure's discrete support, read a
    block at a time (DiscMeasure.integrate)."""
    if q <= 0:
        raise DomainError("q must be positive")
    return float(mu.integrate(lambda z: np.abs(g(z)) ** q) ** (1.0 / q))


def test_function(a, gamma, p, w):
    """Unit-scale probe at basepoint a: conformal power normalized by the
    Carleson-square mass at a (whole-disc mass for a = 0)."""
    a = complex(a)
    mass = w.carleson_mass_at_gap(1.0 - abs(a))
    if not np.isfinite(mass) or mass < 1e-300:
        raise DegenerateBasepointError(
            f"Carleson mass underflowed at |a| = {abs(a):.12g}"
        )
    return ConformalPower(a, gamma, scale=mass ** (-1.0 / p))
