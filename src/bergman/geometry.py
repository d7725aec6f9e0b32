"""Geometry of the unit disc: pseudohyperbolic metric and discs, lattices.

Points are plain complex numbers (vectorized as complex ndarrays).  A
pseudohyperbolic disc knows its exact Euclidean parameters, and _polar_rule
gives quadrature nodes for integrals of radial densities over such discs.
The two dyadic rules every layer shares live here: _band, the band of a gap,
and _ring_blocks, the one walk over points of rings laid one after another
(grids stream their nodes through it, lattices and meshes take it whole).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError

__all__ = [
    "rho",
    "pseudo_disc",
    "r_lattice",
    "probe_lattice",
    "PseudoDisc",
]

_TWO_PI = 2.0 * math.pi

_GL24_X, _GL24_W = np.polynomial.legendre.leggauss(24)
_GL24_X = (_GL24_X + 1.0) / 2.0
_GL24_W = _GL24_W / 2.0


def _polar_rule(c, R, gap_outer):
    """Disc-centred polar rule for (1/pi) * integrals of radial densities over
    the Euclidean discs D(c, R), c >= 0 the distance of each centre from 0.

    Vectorized over discs: returns (gaps, weights) of shapes (discs, 24, 48)
    and (discs, 24, 1), with 24 Gauss-Legendre radii s and 48 midpoint
    angles psi about each centre.  The gaps 1-|node| are
    cancellation-free: 1-|node|^2 is a sum of nonnegative terms anchored at
    the disc's outer gap g0,

        g0(2-g0) + 2c[(R-s) + 2 s sin^2(psi/2)] + (R-s)(R+s),

    divided by 1 + |node|.  The weights sum to R^2 for each disc.
    """
    n_angular = 48
    psi = (np.arange(n_angular) + 0.5) * (_TWO_PI / n_angular)
    vers = 2.0 * np.sin(psi / 2.0) ** 2
    s = R[:, None] * _GL24_X[None, :]
    r_minus_s = R[:, None] * (1.0 - _GL24_X)[None, :]
    # |c + s e^{i psi}|^2 = c^2 + 2 c s cos(psi) + s^2  (c rotated real)
    sq = (c[:, None, None] ** 2
          + 2.0 * c[:, None, None] * s[:, :, None] * np.cos(psi)[None, None, :]
          + (s ** 2)[:, :, None])
    one_minus_sq = (
        (gap_outer * (2.0 - gap_outer))[:, None, None]
        + 2.0 * c[:, None, None] * (r_minus_s[:, :, None]
                                    + s[:, :, None] * vers[None, None, :])
        + (r_minus_s * (R[:, None] + s))[:, :, None]
    )
    gaps = one_minus_sq / (1.0 + np.sqrt(np.clip(sq, 0.0, 1.0)))
    weights = (R[:, None] * _GL24_W[None, :] * s)[:, :, None] * (2.0 / n_angular)
    return gaps, weights


def _band(u):
    """The dyadic band k with 2^-(k+1) < u <= 2^-k of a gap u > 0 (a scalar
    or an array), read exactly off its binary exponent: frexp writes u as
    m 2^e with 1/2 <= m < 1, so k = -e, one band shallower for an exact power
    of two (m = 1/2).  _band(u) >= k exactly when u <= 2^-k."""
    mant, exp = np.frexp(u)
    return (mant == 0.5) - exp


def _angles(n_theta):
    """exp(i theta_j) for the n_theta angles theta_j = (j + 1/2) 2 pi / n_theta,
    built in one complex buffer: the bits of exp(1j * theta), whose input
    is 0 + i theta, without its temporaries."""
    theta = np.arange(n_theta, dtype=float)
    theta += 0.5
    theta *= _TWO_PI / n_theta
    out = np.zeros(n_theta, dtype=complex)
    out.imag = theta
    return np.exp(out, out=out)


def _ring_blocks(gaps, counts, size):
    """Yield (points, rings, taken) for each block of size consecutive points
    of rings laid one after another, in order: ring i holds the counts[i]
    points (1 - gaps[i]) exp(i theta_j), theta_j = (j + 1/2) 2 pi / counts[i],
    and a block holds the points, the rings they lie on and how many of each
    ring's points it takes.  Each ring's share of a block is its radius times
    its slice of the full-ring template of its count (_angles), so a ring
    that blocks cut gets the bits it gets whole.  One template is held at a
    time, from block to block; the old one is dropped before the next count's
    is built."""
    total = int(np.sum(counts))
    template = np.empty(0, dtype=complex)
    ring = j = 0  # the ring being read and its first angle not yet taken
    for lo in range(0, total, size):
        out = np.empty(min(size, total - lo), dtype=complex)
        spans = []  # (ring, points taken) in ring order
        pos = 0
        while pos < len(out):
            n_theta = int(counts[ring])
            if len(template) != n_theta:
                template = None  # let the old template go before the next is built
                template = _angles(n_theta)
            n = min(n_theta - j, len(out) - pos)
            np.multiply(1.0 - gaps[ring], template[j:j + n], out=out[pos:pos + n])
            spans.append((ring, n))
            pos, j = pos + n, j + n
            if j == n_theta:
                ring, j = ring + 1, 0
        yield (out, *np.array(spans).T)


def _ring_points(gaps, counts):
    """All the points of rings laid one after another: the one block of
    _ring_blocks (an empty array for rings without points)."""
    blocks = _ring_blocks(gaps, counts, max(int(np.sum(counts)), 1))
    return next(blocks, (np.empty(0, dtype=complex),))[0]


def rho(a, b):
    """Pseudohyperbolic distance |a-b| / |1 - conj(a) b|; vectorized."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.abs((a - b) / (1.0 - np.conj(a) * b))


# ---------------------------------------------------------------------------
# pseudohyperbolic discs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PseudoDisc:
    """Pseudohyperbolic ball of center a and radius r in (0, 1).

    It is a Euclidean disc with center (1-r^2)a / (1-r^2|a|^2) and radius
    (1-|a|^2)r / (1-r^2|a|^2).
    """

    center: complex
    radius: float
    euclid_center: complex = field(init=False)
    euclid_radius: float = field(init=False)

    def __post_init__(self):
        a, r = self.center, self.radius
        if not (0.0 < r < 1.0):
            raise DomainError("pseudohyperbolic radius must lie in (0, 1)")
        m = abs(a)
        if m >= 1.0:
            raise DomainError("center must lie in the disc")
        denom = 1.0 - r * r * m * m
        object.__setattr__(self, "euclid_center", (1.0 - r * r) * a / denom)
        object.__setattr__(self, "euclid_radius", (1.0 - m * m) * r / denom)


def pseudo_disc(a, r):
    return PseudoDisc(complex(a), float(r))


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

_LATTICE_MAX_NODES = 10_000_000


def r_lattice(r, depth=16):
    """Dyadic-annulus lattice with pseudohyperbolic spacing ~ r/2.

    Rings sit at gaps u = 2^{-(m+0.5)/n_sub}; the angular step on a ring is
    r*u, so both the radial and angular neighbor distances are close to r/2,
    giving covering radius <= r and pairwise separation >= r/5 down to the
    lattice depth.  Raises ResourceLimitError above 10^7 nodes.
    """
    if not (0.0 < r < 1.0):
        raise DomainError("lattice parameter must lie in (0, 1)")
    n_sub = max(1, math.ceil(0.7 / r))
    gaps = 2.0 ** (-(np.arange(n_sub * depth) + 0.5) / n_sub)
    radii = 1.0 - gaps
    # angular neighbors on a ring of radius x sit at distance ~ x dtheta /
    # (1-x^2); aim for r/2
    counts = np.maximum(
        1, np.ceil(4.0 * math.pi * radii / (r * gaps * (2.0 - gaps)))
    ).astype(int)
    if int(np.sum(counts)) > _LATTICE_MAX_NODES:
        raise ResourceLimitError(
            f"lattice would need {int(np.sum(counts))} nodes (> {_LATTICE_MAX_NODES})"
        )
    return _ring_points(gaps, counts)


def probe_lattice(depth=14, angles_per_ring=8):
    """Thin basepoint lattice for supremum sweeps.

    Returns (points, gaps) with gaps = 1-|point| exact by construction.
    Radial placement is geometric (two rings per dyadic level); the angular
    count is fixed, which is enough for radially symmetric data and keeps
    criterion sweeps cheap.  Use r_lattice for a true covering.
    """
    m = np.arange(2 * depth)
    gaps = 2.0 ** (-(m + 0.5) / 2)
    pts = _ring_points(gaps, np.full(len(gaps), angles_per_ring))
    return pts, np.repeat(gaps, angles_per_ring)
