"""Radial weights on the unit disc and their doubling-class diagnostics.

A radial weight is a nonnegative integrable density w(r) on [0, 1).  The
objects of interest are built from its tail integrals

    tail_integral_at_gap(u)  =  int_{1-u}^1 w(s) ds   (written w-hat in the
                                                      doubling-weight literature)
    tail_density_at_gap(u)   =  tail_integral_at_gap(u) / u
    moment(x)                =  int_0^1 r^x w(r) dr

and from the masses of Carleson squares and of the whole disc.  Everything
is computed and taken in "gap space" u = 1 - r: the standard weights
(1-r)^a and their ilk are exact functions of u, so working in u avoids
catastrophic cancellation arbitrarily close to the boundary.  Callers
holding a radius pass 1 - r.

Quadrature strategy: integrals from the boundary inward are summed over
dyadic octaves of u with a fixed Gauss-Legendre rule per octave.  Power-like
integrands are resolved to near machine precision this way, and a divergent
tail (non-integrable weight) is detected from the octave-term ratios.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, IntegrabilityError

__all__ = [
    "RadialWeight",
    "WeightClassReport",
    "classify",
    "gamma_exponent",
]

# 16-point Gauss-Legendre rule on [0, 1].
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0

# Tail integrals below this are treated as numerically extinct.
_UNDERFLOW_FLOOR = 1e-300

# Geometric meshes u_j = 2^(-j/8): the tail caches cover j = 0 .. 8*48, and
# an octave sweep toward u = 0 stops after 600 halvings.
_PER_OCTAVE = 8
_MESH_OCTAVES = 48
_MAX_OCTAVES = 600

# Gaps per block of the (16 x gaps) Gauss-Legendre expansion in _tail_at_gap:
# 0.25 MB per block and per temporary.
_TAIL_CHUNK = 2048


def _gl_sum(vals):
    """_GL_W @ vals for the (16, gaps) array vals of each gap's 16
    Gauss-Legendre terms, each column added in node order, so a gap's value
    does not depend on the other gaps in the batch."""
    acc = vals[0] * _GL_W[0]
    for j in range(1, 16):
        acc += vals[j] * _GL_W[j]
    return acc


def _segment_integral(f, lo, hi):
    """Gauss-Legendre integral of f over [lo, hi] (vectorized in f)."""
    if hi <= lo:
        return 0.0
    x = lo + (hi - lo) * _GL_X
    return float((hi - lo) * np.dot(_GL_W, f(x)))


def _octave_integral(f, u0):
    """Integral of f over (0, u0] by dyadic octaves toward u = 0.

    Uses geometric extrapolation once the octave terms settle into a ratio,
    which is exact for pure powers u^a.  Raises IntegrabilityError when the
    terms do not decay (a <= -1, or worse).
    """
    if u0 <= 0.0:
        return 0.0
    total = 0.0
    prev = None
    ratios = []
    tiny_streak = 0
    zero_streak = 0
    for m in range(_MAX_OCTAVES):
        hi = u0 * 2.0 ** (-m)
        lo = hi / 2.0
        term = _segment_integral(f, lo, hi)
        total += term
        if prev is not None and prev > 0.0 and term > 0.0:
            ratios.append(term / prev)
        prev = term
        # Zero octaves alone must not stop the sweep early: a density may
        # vanish on a band and resume deeper in.  Past u ~ 1e-18 a bounded
        # remainder is negligible and a singular one shows nonzero terms.
        zero_streak = zero_streak + 1 if term == 0.0 else 0
        tiny_streak = tiny_streak + 1 if (total > 0.0 and term < 1e-17 * total) else 0
        if tiny_streak >= 3 and m >= 8:
            return total
        if zero_streak >= 3 and m >= (20 if total > 0.0 else 60):
            return total
    # Did not converge outright: extrapolate geometrically or flag divergence.
    tail_ratios = ratios[-5:]
    if not tail_ratios:
        return total
    rho = float(np.median(tail_ratios))
    if rho >= 0.9995:
        raise IntegrabilityError(
            "tail integral does not converge (octave ratio %.6f)" % rho
        )
    return total + prev * rho / (1.0 - rho)


class RadialWeight:
    """A radial weight with eagerly built tail-integral caches.

    Parameters
    ----------
    gap_density:
        Vectorized callable u -> w(1-u) for u in (0, 1].  Working through
        the boundary gap keeps standard weights exact arbitrarily close to
        |z| = 1.
    name:
        Text tag used in reports.

    The tails are cached on the geometric mesh u_j = 2^(-j/8),
    j = 0 .. 8*48.  Instances are immutable after construction.
    """

    def __init__(self, gap_density, name="custom"):
        self._gap_density = gap_density
        self.name = name
        j = np.arange(_PER_OCTAVE * _MESH_OCTAVES + 1)
        # ascending in u, from the deep end up to u = 1
        self._mesh_u = np.sort(2.0 ** (-j / _PER_OCTAVE))
        self._check_nonnegative()
        # integrands of the cached tails: w and r w as functions of u
        self._integrands = {
            "hat": self._gap,
            "rmom": lambda u: (1.0 - u) * self._gap(u),
        }
        self._tails = {kind: self._build_tail(kind) for kind in self._integrands}
        total = self.tail_integral_at_gap(1.0)
        if not np.isfinite(total) or total <= 0.0:
            raise IntegrabilityError("tail_integral_at_gap(1) must be finite and positive")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def power(cls, alpha):
        """w(r) = (1-r)^alpha, integrable for alpha > -1."""
        if alpha <= -1.0:
            raise IntegrabilityError("power weight needs alpha > -1")
        return cls(lambda u: u ** alpha, name=f"power({alpha:g})")

    @classmethod
    def log_power(cls, alpha, b):
        """w(r) = (1-r)^alpha * (log(e/(1-r)))^b."""
        if alpha <= -1.0:
            raise IntegrabilityError("log_power weight needs alpha > -1")
        return cls(
            lambda u: u ** alpha * (1.0 - np.log(u)) ** b,
            name=f"log_power({alpha:g},{b:g})",
        )

    @classmethod
    def exp_inverse(cls):
        """w(r) = exp(-1/(1-r)); rapidly vanishing, not upper doubling."""

        def gap(u):
            u = np.asarray(u, dtype=float)
            out = np.zeros_like(u)
            mask = u > 1e-3 / 690.0
            out[mask] = np.exp(-1.0 / u[mask])
            return out

        return cls(gap, name="exp_inverse")

    @classmethod
    def from_table(cls, r, w):
        """Linear interpolation through sample points (r_i, w_i)."""
        r = np.asarray(r, dtype=float)
        w = np.asarray(w, dtype=float)
        if r.ndim != 1 or r.shape != w.shape or len(r) < 2:
            raise DomainError("table weight needs matching 1-d r and w arrays")
        if np.any(w < 0.0):
            raise DomainError("table weight values must be nonnegative")
        order = np.argsort(r)
        r, w = r[order], w[order]

        def gap(u):
            return np.interp(1.0 - np.asarray(u, dtype=float), r, w)

        return cls(gap, name="table")

    # -- internals ------------------------------------------------------------

    def _gap(self, u):
        return np.asarray(self._gap_density(np.asarray(u, dtype=float)), dtype=float)

    def _check_nonnegative(self):
        probe = np.concatenate([self._mesh_u, np.linspace(0.05, 1.0, 64)])
        vals = self._gap(probe)
        if np.any(~np.isfinite(vals[probe > 1e-12])) or np.any(vals < 0.0):
            raise DomainError("weight density must be finite and nonnegative")

    def _build_tail(self, kind):
        """Cumulative integrals T[i] = int_0^{mesh_u[i]} f du of one cached
        integrand, ascending mesh."""
        f = self._integrands[kind]
        mesh = self._mesh_u
        T = np.empty_like(mesh)
        T[0] = _octave_integral(f, mesh[0])
        for i in range(1, len(mesh)):
            T[i] = T[i - 1] + _segment_integral(f, mesh[i - 1], mesh[i])
        return T

    def _tail_at_gap(self, kind, u):
        """T(u) = int_0^u f du for the cached integrand, vectorized.

        Each distinct gap is evaluated once (grids and self-map images repeat
        their gaps ring by ring) and the values are scattered back; the
        Gauss-Legendre expansion runs _TAIL_CHUNK gaps at a time, and each
        gap's 16 terms add up in node order (_gl_sum), so its value does not
        depend on the batch it came in.
        """
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u).astype(float)
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise DomainError("gap argument must lie in [0, 1]")
        u, inverse = np.unique(u, return_inverse=True)
        mesh = self._mesh_u
        T = self._tails[kind]
        f = self._integrands[kind]
        out = np.zeros_like(u)
        deep = u < mesh[0]
        for idx in np.nonzero(deep)[0]:
            if u[idx] > 0.0:
                out[idx] = _octave_integral(f, u[idx])
        main = np.nonzero(~deep)[0]
        for lo in range(0, len(main), _TAIL_CHUNK):
            sel = main[lo:lo + _TAIL_CHUNK]
            um = u[sel]
            i = np.searchsorted(mesh, um, side="right") - 1
            base = mesh[i]
            width = um - base
            x = base[None, :] + width[None, :] * _GL_X[:, None]
            part = width * _gl_sum(f(x.ravel()).reshape(x.shape))
            out[sel] = T[i] + part
        out = out[inverse]
        return float(out[0]) if scalar else out

    # -- public operations ----------------------------------------------------

    def density_at_gap(self, u):
        """The weight density w at r = 1-u (exact near the boundary)."""
        return self._gap(u)

    def tail_integral_at_gap(self, u):
        """int_{1-u}^1 w(s) ds for u in [0, 1]; vectorized, ~1e-8 relative or better."""
        return self._tail_at_gap("hat", u)

    def tail_density_at_gap(self, u):
        """tail_integral_at_gap(u) / u; requires u > 0."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0):
            raise DomainError("tail_density requires a positive gap")
        return self._tail_at_gap("hat", u) / u

    def moment(self, x):
        """int_0^1 r^x w(r) dr for x >= 1."""
        if x < 1.0:
            raise DomainError("moment is defined for x >= 1")

        def f(u):
            # r^x = exp(x log(1-u)) through log1p for stability
            return np.exp(x * np.log1p(-np.minimum(u, 1.0 - 1e-17))) * self._gap(u)

        return _octave_integral(f, 1.0)

    def disc_mass(self):
        """Weighted area of the whole disc, area measure normalized by pi."""
        return 2.0 * self._tail_at_gap("rmom", 1.0)

    def carleson_mass_at_gap(self, u):
        """Weighted area of the Carleson square at a basepoint of gap u = 1-|z|.

        The square at z != 0 has angular width u and radial side [|z|, 1).
        u == 1 (z = 0) returns the whole-disc mass.
        """
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u).astype(float)
        if np.any(u <= 0.0) or np.any(u > 1.0):
            raise DomainError("gap must lie in (0, 1]")
        out = u * self._tail_at_gap("rmom", u) / math.pi
        out = np.where(u == 1.0, self.disc_mass(), out)
        return float(out[0]) if scalar else out

    def __repr__(self):
        return f"RadialWeight({self.name})"


# ---------------------------------------------------------------------------
# classification into the doubling classes
# ---------------------------------------------------------------------------

@dataclass
class WeightClassReport:
    """Empirical doubling-class diagnostics for a radial weight; the fields
    are the keys of its JSON form (to_json).

    dhat_constant is the mesh supremum of tail(r)/tail((1+r)/2), dcheck_C
    the largest mesh infimum of tail(r)/tail(1-(1-r)/K), at K = dcheck_K;
    exponent_lower <= exponent_upper envelope the local dyadic decay rates
    of the tail integral (for (1-r)^a both equal a+1); flags record the
    threshold decisions, with stability measured under mesh doubling.
    """

    weight: str
    dhat_constant: float
    dcheck_K: int
    dcheck_C: float
    exponent_lower: float
    exponent_upper: float
    upper_doubling: bool
    lower_doubling: bool
    doubling: bool
    moment_class: bool
    mesh_resolution: int
    sandwich_constant: float
    fitted_slope: float
    dhat_stability: float
    dcheck_stability: float
    truncated_at: float | None
    notes: list

    def to_json(self):
        return asdict(self)


# Relative-change threshold for "the empirical sup is stable under mesh
# doubling", the observable proxy for "a constant exists".
_STABILITY_TOL = 0.02
_LOWER_MARGIN = 1.05


def _dyadic_ratio_stats(w, points):
    """Tail values on the geometric mesh plus shifted meshes for K = 2,4,8,16."""
    u = 2.0 ** (-np.arange(points + 4 * _PER_OCTAVE) / _PER_OCTAVE)
    hat = w.tail_integral_at_gap(u)
    floor = _UNDERFLOW_FLOOR
    alive = hat > floor
    # keep the contiguous prefix of mesh points whose halved/16th gaps survive
    n_ok = points
    for j in range(points):
        if not alive[j + 4 * _PER_OCTAVE]:
            n_ok = j
            break
    truncated_at = None if n_ok == points else float(1.0 - u[n_ok])
    if n_ok < 2:
        dead = float(1.0 - u[np.argmin(alive)])
        raise DomainError(f"tail integral is extinct from r = {dead:.6g} on: fewer "
                          "than two mesh points keep a live tail at the K = 16 shift")
    ratios = {}
    for octaves, K in enumerate((2, 4, 8, 16), start=1):
        shift = octaves * _PER_OCTAVE
        ratios[K] = hat[:n_ok] / hat[shift : shift + n_ok]
    return u[:n_ok], hat[:n_ok], ratios, truncated_at


def _sandwich_constants(u, hat, alpha_hat, beta_hat):
    """(c_up, c_lo): the maxima over the mesh pairs i < j (u_i > u_j, so
    r_i <= r_j) of rat / scale^beta_hat and scale^alpha_hat / rat, where
    scale = u_i / u_j and rat = hat_i / hat_j.  The pairs are taken one
    diagonal j - i = d at a time, in O(mesh) memory; a maximum of diagonal
    maxima is the maximum itself, bit for bit."""
    up, lo = [], []
    with np.errstate(over="ignore"):
        for d in range(1, len(u)):
            scale = u[:-d] / u[d:]
            rat = hat[:-d] / hat[d:]
            up.append(np.max(rat / scale ** beta_hat))
            lo.append(np.max(scale ** alpha_hat / rat))
    return np.max(up), np.max(lo)


def classify(w, mesh=256):
    """Classify a radial weight into the upper/lower doubling and moment classes.

    mesh is the number of geometric mesh points 1 - 2^(-j/8).  Membership
    flags threshold empirical constants and require them to be stable in
    depth: doubling the mesh doubles its reach toward the boundary, and the
    first half of the doubled mesh is the original one, so stability is the
    relative change between the constant over the shallow half and over the
    full (alive, non-underflowed) mesh.
    """
    if mesh < 64:
        raise DomainError("classification mesh must have at least 64 points")
    # The deepest gap read, 2^-((mesh + 31)/8), and the _MAX_OCTAVES halvings
    # of its tail sweep must stay normal floats: deeper, the tail turns
    # infinite and the ratios NaN.
    max_mesh = _PER_OCTAVE * (-np.finfo(float).minexp - _MAX_OCTAVES) - 4 * _PER_OCTAVE + 1
    if mesh > max_mesh:
        raise DomainError(f"classification mesh must have at most {max_mesh} points")

    u, hat, ratios, truncated_at = _dyadic_ratio_stats(w, mesh)

    r2 = ratios[2]
    half = max(2, len(r2) // 2)
    dhat = float(np.max(r2))
    dhat_shallow = float(np.max(r2[:half]))
    dhat_stability = abs(dhat - dhat_shallow) / dhat if dhat > 0 else math.inf
    upper = bool(np.isfinite(dhat) and dhat_stability < _STABILITY_TOL)

    best_K, best_C, dcheck_stability = 2, -math.inf, math.inf
    for K in (2, 4, 8, 16):
        C = float(np.min(ratios[K]))
        C_shallow = float(np.min(ratios[K][:half]))
        stab = abs(C - C_shallow) / C if C > 0 else math.inf
        if C > best_C:
            best_K, best_C, dcheck_stability = K, C, stab
    lower = bool(best_C >= _LOWER_MARGIN and dcheck_stability < _STABILITY_TOL)

    exps = np.log2(r2)
    alpha_hat = float(np.min(exps))
    beta_hat = float(np.max(exps))
    slope = float(np.polyfit(np.log(u), np.log(hat), 1)[0])

    # minimal sandwich constant at the fitted exponent envelope
    sandwich = float(max(1.0, *_sandwich_constants(u, hat, alpha_hat, beta_hat)))

    xs = 2.0 ** np.arange(11)
    moms = np.array([w.moment(float(x)) for x in xs])
    m_member = False
    for K in (2, 4, 8):
        shift = int(math.log2(K))
        valid = moms[:-shift] / moms[shift:]
        if np.min(valid) >= _LOWER_MARGIN:
            m_member = True
            break

    notes = []
    if truncated_at is not None:
        notes.append(
            f"mesh truncated at r = {truncated_at:.6g}: tail integral underflowed"
        )

    return WeightClassReport(
        weight=w.name,
        dhat_constant=dhat,
        dcheck_K=best_K,
        dcheck_C=best_C,
        exponent_lower=alpha_hat,
        exponent_upper=beta_hat,
        upper_doubling=upper,
        lower_doubling=lower,
        doubling=upper and lower,
        moment_class=m_member,
        mesh_resolution=mesh,
        sandwich_constant=sandwich,
        fitted_slope=slope,
        dhat_stability=float(dhat_stability),
        dcheck_stability=float(dcheck_stability),
        truncated_at=truncated_at,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# the Berezin exponent
# ---------------------------------------------------------------------------

def gamma_exponent(w, p):
    """Berezin kernel exponent 2*(beta+2)/p, beta the upper decay rate that
    classify(w, mesh=128) fits: the largest log2 of the D-hat ratios."""
    if p <= 0:
        raise DomainError("p must be positive")
    beta = float(np.max(np.log2(_dyadic_ratio_stats(w, 128)[2][2])))
    return 2.0 * (beta + 2.0) / p
