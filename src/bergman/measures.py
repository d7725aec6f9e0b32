"""Quadrature grids on the disc, disc measures, and the weighted pushforward.

The grid is boundary-refined: dyadic annuli 1-2^{-k} <= |z| < 1-2^{-k-1} for
k = 0..L-1 plus a closing cap (0 < 1-|z| <= 2^{-L}), each annulus carrying
_RADIAL_SUBCELLS radial subcells (two Gauss-Legendre nodes per subcell, exact
for cubic radial integrands) and an angular midpoint count proportional to
2^k.  The nodes come in rings of constant |z|, and all radial bookkeeping
happens once per ring through its boundary gap u = 1-|z|: the grid stores
ring gaps, masses and node counts, and its flat node order runs ring after
ring.  Any range of that order is built from the rings alone
(node_range), so a caller that streams the grid never holds all of it.

Measures come in two representations: a radial density (backed by the
same tail-integral machinery as radial weights, so its Carleson-square masses
have a closed form and its pseudo-disc masses a disc-centred polar rule) and
an atomic cloud, whose masses are sums over a sorted index of its atoms.
``support_nodes(lo, hi)`` exposes a range of the common discrete picture
(points, masses) that the pushforward and criterion integrals consume; the
streaming callers read it in blocks of _NODE_BLOCK nodes.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings

import numpy as np

from . import geometry
from .errors import DomainError, ResourceLimitError, SelfMapViolationError
from .weights import RadialWeight

__all__ = [
    "QuadratureGrid",
    "DiscMeasure",
    "RadialDensityMeasure",
    "AtomicMeasure",
    "pushforward",
]

_TWO_PI = 2.0 * math.pi
_MAX_GRID_NODES = 100_000_000
_RADIAL_SUBCELLS = 4
# Support nodes per block where the support is streamed (pushforward, the
# Berezin and H-infinity criteria): per-node temporaries stay a few MB however
# fine the grid.  A multiple of the Berezin sweep's slice, so streaming keeps
# the sweep's summation order.
_NODE_BLOCK = 1 << 16

# 2-point Gauss-Legendre on [0, 1]
_GL2_X = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
_GL2_W = np.array([0.5, 0.5])


def _ring_layout(levels):
    """Radial rings of the boundary-refined grid, band by band (k = 0..levels)
    and in ascending gap within a band.

    Returns (gaps, radial masses int (1-u) du * GL weight, band index).  The
    dyadic annuli split into uniform u-subcells; the closing cap splits
    geometrically toward u = 0.  Two GL nodes per subcell make the layout
    exact for cubic radial integrands.
    """
    m = _RADIAL_SUBCELLS
    gaps, masses = [], []
    for k in range(levels + 1):
        u_hi = 2.0 ** (-k)
        if k < levels:
            edges = np.linspace(u_hi / 2.0, u_hi, m + 1)
        else:
            edges = np.array([0.0] + [u_hi * 2.0 ** (-i) for i in range(m)][::-1])
        lo = edges[:-1, None]
        width = edges[1:, None] - lo
        u = lo + width * _GL2_X
        gaps.append(u.ravel())
        masses.append((_GL2_W * width * (1.0 - u)).ravel())
    bands = np.repeat(np.arange(levels + 1), 2 * m)
    return np.concatenate(gaps), np.concatenate(masses), bands


class QuadratureGrid:
    """Boundary-refined polar node/weight set for the normalized area measure.

    The grid is a stack of rings.  Ring k sits at the gap ring_gaps[k],
    carries the full-circle mass ring_weights[k], and holds ring_counts[k]
    equally spaced angular midpoints, each with the area weight
    ring_node_weights[k].  A quantity that depends on |z| alone is evaluated
    once per ring and repeated ring_counts times.  The angular counts are
    constant within a dyadic band, so band-wide angular templates apply to
    every ring of the band.  Weights sum to 1 exactly up to roundoff.

    The constructor keeps only these ring arrays.  The flat per-node order
    runs ring after ring (so np.repeat(ring_gaps, ring_counts) are the
    nodes' gaps); node_range(lo, hi) builds any range of it, and the cached
    nodes and weights arrays, built on first read, are its whole-grid form,
    so work that needs only the rings or streams ranges never allocates
    them; node_count reads the ring counts.  Instances are immutable and
    shared freely.
    """

    radial_subcells = _RADIAL_SUBCELLS

    def __init__(self, levels, angular_base=16):
        if not (1 <= levels <= 24):
            raise DomainError("grid level must lie in 1..24")
        self.levels = int(levels)
        self.angular_base = int(angular_base)

        est = 4 * _RADIAL_SUBCELLS * self.angular_base * 2 ** self.levels
        if est > _MAX_GRID_NODES:
            raise ResourceLimitError(
                f"grid would need about {est} nodes (> {_MAX_GRID_NODES})"
            )

        gaps, masses, bands = _ring_layout(self.levels)
        counts = self.angular_base * 2 ** bands
        self.ring_gaps = gaps
        self.ring_weights = masses * 2.0  # full-circle mass
        self.ring_counts = counts
        self.ring_node_weights = masses * (_TWO_PI / counts) / math.pi
        self.node_count = int(counts.sum())

    @functools.cached_property
    def weights(self):
        return np.repeat(self.ring_node_weights, self.ring_counts)

    @functools.cached_property
    def nodes(self):
        return self.node_range(0, self.node_count)

    def node_range(self, lo, hi):
        """nodes[lo:hi] (clipped to the grid), built from the rings by
        geometry._ring_points: one angle template per band."""
        return geometry._ring_points(self.ring_gaps, self.ring_counts, lo, hi)

    def __repr__(self):
        return (
            f"QuadratureGrid(levels={self.levels}, nodes={self.node_count})"
        )


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

class DiscMeasure:
    """A finite positive Borel measure on the disc (discretized)."""

    @property
    def support_size(self):
        """The number of points in the discrete picture."""
        raise NotImplementedError

    def support_nodes(self, lo=0, hi=None):
        """Points lo to hi (default: to the end) of the measure's discrete
        picture and their masses, as two arrays."""
        raise NotImplementedError

    def pseudo_disc_masses(self, centers, r, center_gaps=None):
        """Vectorized mu(Delta(a, r)) over an array of centers."""
        raise NotImplementedError

    def carleson_masses(self, bases):
        """mu(S(a)) over an array of basepoints (S(0) is the whole disc).

        S(a) for a != 0 holds the points p with |p| >= |a| whose angle lies
        within (1-|a|)/2 of arg a.
        """
        raise NotImplementedError

    def integrate(self, g):
        """int g d(mu) over the discrete representation (g may be complex)."""
        pts, masses = self.support_nodes()
        return np.sum(np.asarray(g(pts)) * masses).item()


def _disc_params(center_abs, gaps, r):
    """Euclidean (c, R, gap_outer, gap_inner) of Delta(a, r) from |a| and 1-|a|."""
    one_minus_sq = gaps * (2.0 - gaps)  # 1 - |a|^2
    denom = 1.0 - r * r * center_abs ** 2
    c = (1.0 - r * r) * center_abs / denom
    R = one_minus_sq * r / denom
    g_out = gaps * (1.0 - r) / (1.0 + r * center_abs)
    g_in = gaps * (1.0 + r) / (1.0 - r * center_abs)
    return c, R, g_out, g_in


# Window padding: relative on gaps and the asin argument, absolute on angles.
# It only widens windows; membership is decided by the exact test.
_WINDOW_PAD = 1e-12
# Sort keys are 8 * band + angle; angles lie in [-pi, pi], so the band runs
# [8b - 4, 8b + 4] are disjoint and each holds its band's atoms in angle order.
_BAND_STRIDE = 8.0
_CENTER_BLOCK = 1 << 16  # centres per block of windows
_CANDIDATE_CHUNK = 1 << 16  # candidate points tested per step


class _SupportIndex:
    """Points with masses, sorted by (dyadic band of the gap, angle), for
    region sums that visit only the points that can lie in each region.
    The band is geometry._band: band k holds the gaps in (2^-(k+1), 2^-k].

    Both regions the criteria need are windows in this order: a few dyadic
    bands of gaps times an arc of angles.
    - Delta(a, r) is the Euclidean disc D(ce, R).  Its points have gaps
      between the disc's outer and inner gaps; when R < |ce| they also lie
      within asin(R/|ce|) of arg(ce) (otherwise the disc holds the origin and
      every angle).
    - S(a) holds the bands from _band(1-|a|) to the deepest one and the
      angles within (1-|a|)/2 of arg a; S(0) is the whole disc.
    Each (region, band) pair thus reads one or two contiguous runs of the
    sorted keys (two where the angle window wraps at +-pi), found with
    searchsorted.  Every point of those windows takes the region's exact
    membership test, so a generous window changes nothing.
    """

    def __init__(self, points, masses):
        # one key buffer: the gaps, then the band bases, then the keys
        keys = np.abs(points)
        np.subtract(1.0, keys, out=keys)
        bands = geometry._band(keys)
        self.band_range = (bands.min(), bands.max()) if len(bands) else None
        np.multiply(_BAND_STRIDE, bands, out=keys)
        del bands
        keys += np.angle(points)
        order = np.argsort(keys)
        self.keys = keys[order]
        del keys
        self.points = points[order]
        self.masses = masses[order]

    def pseudo_disc_masses(self, centers, r, center_gaps=None):
        """Mass of the points in Delta(a, r) for each centre a."""
        centers = np.atleast_1d(np.asarray(centers, dtype=complex))
        if center_gaps is None:
            center_gaps = 1.0 - np.abs(centers)
        return self._per_block(len(centers),
                               lambda b: self._disc_windows(centers[b], center_gaps[b], r))

    def carleson_masses(self, bases):
        """Mass of the points in S(a) for each basepoint a."""
        bases = np.atleast_1d(np.asarray(bases, dtype=complex))
        return self._per_block(len(bases), lambda b: self._square_windows(bases[b]))

    def _per_block(self, n, block):
        """Masses of n regions, _CENTER_BLOCK at a time; block(b) gives the
        windows and the exact membership test of the regions in slice b."""
        out = np.zeros(n)
        if self.band_range is not None:
            for s in range(0, n, _CENTER_BLOCK):
                b = slice(s, s + _CENTER_BLOCK)
                self._sum_windows(out[b], *block(b))
        return out

    def _disc_windows(self, centers, center_gaps, r):
        """Windows and exact test of Delta(a, r) for a block of centres."""
        mods = np.abs(centers)
        c, R, g_out, g_in = _disc_params(mods, center_gaps, r)
        ce = np.where(mods > 0, centers / np.maximum(mods, 1e-300), 1.0) * c
        half = np.arcsin(np.minimum(R / np.maximum(c, 1e-300) * (1.0 + _WINDOW_PAD), 1.0))
        half += _WINDOW_PAD  # <= pi/2 + pad, so at most one end wraps
        arcs = self._angle_windows(np.angle(ce), half, R >= c)
        windows = self._windows(geometry._band(g_in * (1.0 + _WINDOW_PAD)),
                                geometry._band(g_out * (1.0 - _WINDOW_PAD)), arcs)
        return windows, lambda idx, k: np.abs(self.points[idx] - ce[k]) < R[k]

    def _square_windows(self, bases):
        """Windows and exact test of S(a) for a block of basepoints."""
        # |a| as Python's abs takes it (np.abs of a complex array can differ
        # by an ulp); a point's |p| >= |a| then implies its gap <= 1 - |a|
        mods = np.hypot(bases.real, bases.imag)
        gaps = 1.0 - mods
        theta, half = np.angle(bases), gaps / 2.0
        whole = mods == 0.0
        arcs = self._angle_windows(theta, half * (1.0 + _WINDOW_PAD) + _WINDOW_PAD, whole)
        windows = self._windows(geometry._band(gaps * (1.0 + _WINDOW_PAD)),
                                self.band_range[1], arcs)

        def inside(idx, k):
            pts = self.points[idx]
            d = np.abs((np.angle(pts) - theta[k] + math.pi) % _TWO_PI - math.pi)
            return whole[k] | ((np.abs(pts) >= mods[k]) & (d < half[k]))

        return windows, inside

    @staticmethod
    def _angle_windows(theta, half, whole):
        """Per region, two angle intervals (lo1, hi1, lo2, hi2) relative to a
        band's key base; an empty one has lo > hi.  The arc is theta +- half
        (half < pi), or every angle where whole."""
        lo, hi = theta - half, theta + half
        wrap_lo, wrap_hi = lo < -math.pi, hi > math.pi
        edge = _BAND_STRIDE / 2.0
        arcs = np.empty((len(theta), 4))
        arcs[:, 0] = np.where(wrap_lo, lo + _TWO_PI, lo)
        arcs[:, 1] = np.where(wrap_lo | wrap_hi, edge, hi)
        arcs[:, 2] = -edge
        arcs[:, 3] = np.where(wrap_lo, hi, np.where(wrap_hi, hi - _TWO_PI, -2.0 * edge))
        arcs[whole] = (-edge, edge, 1.0, -1.0)
        return arcs

    def _sum_windows(self, out, windows, inside):
        """Add to out[k] the mass of the points of region k's windows that
        pass the exact test inside(idx, k), idx their positions in the
        sorted points and k their regions."""
        owner, start, length = windows
        end = np.cumsum(length)
        begin = end - length
        shift = start - begin  # candidate t of window w is point t + shift[w]
        total = int(end[-1]) if len(end) else 0
        for t0 in range(0, total, _CANDIDATE_CHUNK):
            t1 = min(t0 + _CANDIDATE_CHUNK, total)
            w0, w1 = np.searchsorted(end, [t0, t1 - 1], "right")
            ws = slice(w0, w1 + 1)
            counts = np.minimum(end[ws], t1) - np.maximum(begin[ws], t0)
            w = np.repeat(np.arange(w0, w1 + 1), counts)
            idx = np.arange(t0, t1) + shift[w]
            k = owner[w]  # nondecreasing: windows are ordered by region
            hit = inside(idx, k)
            out[k[0]:k[-1] + 1] += np.bincount(k[hit] - k[0],
                                               weights=self.masses[idx[hit]],
                                               minlength=k[-1] - k[0] + 1)

    def _windows(self, band_lo, band_hi, arcs):
        """(owner region, start, length) of the nonempty runs of sorted points
        in the regions' windows (bands band_lo to band_hi, the angle
        intervals arcs), ordered by owner."""
        lo, hi = self.band_range
        band_lo = np.maximum(band_lo, lo)
        band_hi = np.minimum(band_hi, hi)
        n_bands = np.maximum(band_hi - band_lo + 1, 0)
        owner = np.repeat(np.arange(len(arcs)), n_bands)  # one entry per (region, band)
        first = np.cumsum(n_bands) - n_bands
        base = _BAND_STRIDE * (band_lo[owner] + np.arange(len(owner)) - first[owner])
        bounds = base[:, None] + arcs[owner]  # lo1 hi1 lo2 hi2 in key units
        start = np.searchsorted(self.keys, bounds[:, 0::2].ravel(), "left")
        length = np.searchsorted(self.keys, bounds[:, 1::2].ravel(), "right") - start
        keep = length > 0
        return np.repeat(owner, 2)[keep], start[keep], length[keep]


class RadialDensityMeasure(DiscMeasure):
    """d(mu) = w(|z|) dA for a RadialWeight w, on a grid.

    Carleson-square masses are the weight's tail integrals and pseudo-disc
    masses come from a disc-centred polar rule, so they are accurate
    independently of any grid.  The grid defines the discrete support for
    pushforwards.
    """

    def __init__(self, weight, grid, name="radial_density"):
        self._weight = weight
        self.grid = grid
        self.name = name

    @classmethod
    def from_power(cls, beta, grid):
        if beta <= -1.0:
            raise DomainError("power density needs beta > -1")
        name = f"power_density({beta:g})"
        return cls(RadialWeight(lambda u: u ** beta, name=name, allow_zero=True), grid, name)

    @classmethod
    def from_weight(cls, w, grid):
        """The measure w dA; it shares w and its tail caches."""
        return cls(w, grid, name=f"density({w.name})")

    @property
    def support_size(self):
        return self.grid.node_count

    @functools.cached_property
    def _ring_masses(self):
        """Mass of one node of each grid ring: the density read once per ring."""
        return self._weight.density_at_gap(self.grid.ring_gaps) * self.grid.ring_node_weights

    def support_nodes(self, lo=0, hi=None):
        """Grid nodes lo to hi and their masses, built from the rings for
        that range alone; no node-sized array is kept."""
        grid = self.grid
        hi = grid.node_count if hi is None else hi
        rings, _, counts = geometry._ring_spans(grid.ring_counts, lo, hi)
        return grid.node_range(lo, hi), np.repeat(self._ring_masses[rings], counts)

    def carleson_masses(self, bases):
        bases = np.atleast_1d(np.asarray(bases, dtype=complex))
        return self._weight.carleson_mass_at_gap(1.0 - np.abs(bases))

    def pseudo_disc_masses(self, centers, r, center_gaps=None):
        centers = np.atleast_1d(np.asarray(centers, dtype=complex))
        if center_gaps is None:
            center_gaps = 1.0 - np.abs(centers)
        c, R, g_out, _ = _disc_params(np.abs(centers), center_gaps, r)
        gaps, w = geometry._polar_rule(c, R, g_out)
        vals = self._weight.density_at_gap(gaps.ravel()).reshape(gaps.shape)
        return np.einsum("bij,bij->b", vals, np.broadcast_to(w, gaps.shape))


_ATOM_COLUMNS = ("re", "im", "mass")


def _parses(cell):
    """Whether np.loadtxt reads cell as a float: Python's float() without its
    digit-group underscores and non-ASCII digits."""
    try:
        float(cell)
    except (TypeError, ValueError):
        return False
    return "_" not in cell and cell.strip().isascii()


def _atoms_csv_error(path, cols, exc):
    """The DomainError for an atoms CSV that np.loadtxt rejected, naming the
    file, line and column of the first cell that is missing or not a number."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:  # blank lines carry no atom
                continue
            for col, i in zip(_ATOM_COLUMNS, cols):
                cell = row[i] if i < len(row) else None
                if not _parses(cell):
                    what = "is missing" if cell is None else f"is not a number ({cell!r})"
                    return DomainError(
                        f"atoms csv {path}, line {reader.line_num}: column {col!r} {what}")
    return DomainError(f"atoms csv {path}: {exc}")


class AtomicMeasure(DiscMeasure):
    """A finite sum of point masses inside the disc."""

    def __init__(self, points, masses, name="atoms"):
        points = np.asarray(points, dtype=complex).ravel()
        masses = np.asarray(masses, dtype=float).ravel()
        if points.shape != masses.shape:
            raise DomainError("points and masses must have matching shapes")
        if np.any(masses < 0.0) or np.any(~np.isfinite(masses)):
            raise DomainError("atom masses must be finite and nonnegative")
        if not np.all(np.abs(points) < 1.0):  # also rejects NaN coordinates
            raise DomainError("atoms must lie inside the open disc")
        self.name = name
        self.points = points
        self.masses = masses

    @property
    def min_gap(self):
        """The deepest atom's gap min(1 - |p|); inf for an empty cloud."""
        return float(np.min(1.0 - np.abs(self.points), initial=np.inf))

    @classmethod
    def from_csv(cls, path):
        """Read atoms from a CSV with a header naming re, im and mass columns.

        The columns may come in any order, other columns are ignored, cells
        may be quoted and blank lines are skipped; '#' is not a comment.
        """
        with open(path, newline="") as fh:
            position = {col: i for i, col in enumerate(next(csv.reader(fh), []))}
            for col in _ATOM_COLUMNS:
                if col not in position:
                    raise DomainError(f"atoms csv {path}: no {col!r} column")
            cols = [position[col] for col in _ATOM_COLUMNS]
            try:
                with warnings.catch_warnings():  # a header-only file is an empty cloud
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    arr = np.loadtxt(fh, delimiter=",", usecols=cols, comments=None,
                                     quotechar='"', ndmin=2)
            except UnicodeDecodeError:  # unreadable file, not a bad cell
                raise
            except ValueError as exc:
                raise _atoms_csv_error(path, cols, exc) from None
        return cls(arr[:, 0] + 1j * arr[:, 1], arr[:, 2], name=str(path))

    @property
    def support_size(self):
        return len(self.points)

    def support_nodes(self, lo=0, hi=None):
        """Views of the atoms lo to hi and their masses."""
        return self.points[lo:hi], self.masses[lo:hi]

    @functools.cached_property
    def _index(self):
        """The _SupportIndex of the atoms, built on first use."""
        return _SupportIndex(self.points, self.masses)

    def pseudo_disc_masses(self, centers, r, center_gaps=None):
        return self._index.pseudo_disc_masses(centers, r, center_gaps)

    def carleson_masses(self, bases):
        return self._index.carleson_masses(bases)


def _node_blocks(count):
    """(lo, hi) of the blocks of _NODE_BLOCK support nodes that cover count."""
    return [(lo, min(lo + _NODE_BLOCK, count)) for lo in range(0, count, _NODE_BLOCK)]


def pushforward(phi, h, mu):
    """Weighted pushforward: atoms (phi(x), h(x) * mass(x)) over mu's support.

    The discrete change of variable int g d(pushforward) = int (g o phi) h
    d(mu) then holds exactly, term by term.  h = None means h == 1.  The
    support is read in blocks of _NODE_BLOCK nodes, so the only support-sized
    arrays are the two the result keeps.  A map that leaves the disc raises
    SelfMapViolationError naming the first point of largest image modulus.
    """
    images = np.empty(mu.support_size, dtype=complex)
    new_masses = np.empty(mu.support_size)
    worst = None  # (|image|, point, image) of the first largest image off the disc
    for lo, hi in _node_blocks(mu.support_size):
        pts, masses = mu.support_nodes(lo, hi)
        img = images[lo:hi]
        img[:] = phi(pts)
        mods = np.abs(img)
        off = mods >= 1.0
        if np.any(off):
            i = int(np.argmax(np.where(off, mods, 0.0)))
            if worst is None or mods[i] > worst[0]:
                worst = (mods[i], pts[i], img[i])
        if h is None:
            new_masses[lo:hi] = masses
        else:
            np.multiply(np.asarray(h(pts), dtype=float), masses, out=new_masses[lo:hi])
    if worst is not None:
        _, pt, image = worst
        raise SelfMapViolationError(f"map sent {pt} to {image} (|.| = {abs(image):.6f})")
    if np.any(new_masses < 0.0):
        raise DomainError("pushforward density h must be nonnegative")
    return AtomicMeasure(images, new_masses, name=f"pushforward({mu.name})")
