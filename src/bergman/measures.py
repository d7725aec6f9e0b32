"""Quadrature grids on the disc, disc measures, and the weighted pushforward.

The grid is boundary-refined: dyadic annuli 1-2^{-k} <= |z| < 1-2^{-k-1} for
k = 0..L-1 plus a closing cap (0 < 1-|z| <= 2^{-L}), each annulus carrying
_RADIAL_SUBCELLS radial subcells (two Gauss-Legendre nodes per subcell, exact
for cubic radial integrands) and an angular midpoint count proportional to
2^k.  The nodes come in rings of constant |z|, and all radial bookkeeping
happens once per ring through its boundary gap u = 1-|z|: the grid stores
ring gaps, masses and node counts, and its flat node order runs ring after
ring.  The grid keeps no per-node array: it hands out its nodes in blocks
of _NODE_BLOCK consecutive nodes, each built from the rings alone
(QuadratureGrid.blocks), and a whole-grid sum (a norm) adds the sums of
those blocks in block order.

Measures answer one region query, the pseudo-disc masses mu(Delta(a, r))
that the criteria read, and come in two representations: a radial density
(a callable u -> w(1-u) on a grid) takes them from a disc-centred polar
rule, once per distinct centre radius, and an atomic cloud sums them one
support block at a time, over a sorted index of that block alone.  A
cloud is stored (points and masses) or streamed: the weighted pushforward
recomputes its atoms from (phi, h, mu) whenever they are read.  Either way
the query holds one block's sorted copy at a time and makes no
whole-support copy of the atoms.

Every measure streams its discrete picture (points, masses) itself, in
blocks whose size it alone chooses (support_blocks): a radial density
measure in its grid's blocks of _NODE_BLOCK nodes, a stored cloud in views
of _ATOM_BLOCK atoms, and a pushforward in the blocks of the measure it
pushes forward.  The pushforward, the pseudo-disc query and the criterion
integrals read a support only through that stream.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import warnings

import numpy as np

from . import geometry
from .errors import DomainError, ResourceLimitError, SelfMapViolationError

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
# Nodes per block of a grid (QuadratureGrid.blocks), so of every grid sweep
# and of a radial density measure's support: per-node temporaries stay well
# under a MB however fine the grid.  A multiple of the Berezin sweep's
# slice, so streaming keeps the sweep's summation order.
_NODE_BLOCK = 1 << 14
# Atoms per block of a stored cloud's support.  Larger than _NODE_BLOCK: a
# pseudo-disc query costs about one window search per (centre, support
# block), so a 369,986-centre query over a 300k cloud takes about three
# times the CPU at 1 << 14.  Also a multiple of the Berezin sweep's slice.
_ATOM_BLOCK = 1 << 16

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

    The grid keeps only these ring arrays.  The flat per-node order runs
    ring after ring (so np.repeat(ring_gaps, ring_counts) are the nodes'
    gaps and np.repeat(ring_node_weights, ring_counts) their weights);
    blocks() builds its nodes a block at a time, and node_count reads the
    ring counts.  Instances are immutable and shared freely.
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

    def blocks(self):
        """Yield (nodes, rings, taken) for each block of _NODE_BLOCK nodes of
        the flat order, in order: the walk of geometry._ring_blocks, which
        holds the angle template of the count it is reading from block to
        block, so a ring that blocks cut reads it too."""
        return geometry._ring_blocks(self.ring_gaps, self.ring_counts, _NODE_BLOCK)

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

    def support_blocks(self):
        """Yield the measure's discrete picture as (points, masses) blocks
        that cover it in order, in a block size the measure chooses."""
        raise NotImplementedError

    def pseudo_disc_masses(self, centers, r, center_gaps):
        """Vectorized mu(Delta(a, r)) over an array of centers, given their
        exact gaps 1-|a|."""
        raise NotImplementedError

    def integrate(self, g):
        """int g d(mu) over the discrete representation (g may be complex):
        the sums of g times the masses over the support's blocks, added in
        block order."""
        total = np.float64(0.0)
        for pts, masses in self.support_blocks():
            total += np.sum(np.asarray(g(pts)) * masses)
        return total.item()


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
    """One support block's points with their masses, sorted by (dyadic band
    of the gap, angle), for pseudo-disc sums that visit only the points that
    can lie in each disc.  The band is geometry._band: band k holds the gaps
    in (2^-(k+1), 2^-k].  AtomicMeasure.pseudo_disc_masses sorts each block
    of the support (support_blocks) alone, so no index spans the whole
    support and none outlives its block.

    The pseudo-disc Delta(a, r) is the Euclidean disc D(ce, R), a window in
    this order: a few dyadic bands of gaps times an arc of angles.  Its
    points have gaps between the disc's outer and inner gaps; when R < |ce|
    they also lie within asin(R/|ce|) of arg(ce) (otherwise the disc holds
    the origin and every angle).  Each (disc, band) pair thus reads one or
    two contiguous runs of the sorted keys (two where the angle window wraps
    at +-pi), found with searchsorted.  Every point of those windows takes
    the exact test |p - ce| < R, so a generous window changes nothing.
    """

    def __init__(self, points, masses):
        bands = geometry._band(1.0 - np.abs(points))
        keys = _BAND_STRIDE * bands + np.angle(points)
        order = np.argsort(keys)
        self.keys, self.points, self.masses = keys[order], points[order], masses[order]
        # the sorted keys run band by band
        self.band_range = (bands[order[0]], bands[order[-1]]) if len(order) else None

    def _disc_windows(self, centers, center_gaps, r):
        """Windows and Euclidean discs D(ce, R) of Delta(a, r) for a block of
        centres."""
        mods = np.abs(centers)
        c, R, g_out, g_in = _disc_params(mods, center_gaps, r)
        ce = np.where(mods > 0, centers / np.maximum(mods, 1e-300), 1.0) * c
        half = np.arcsin(np.minimum(R / np.maximum(c, 1e-300) * (1.0 + _WINDOW_PAD), 1.0))
        half += _WINDOW_PAD  # <= pi/2 + pad, so at most one end wraps
        arcs = self._angle_windows(np.angle(ce), half, R >= c)
        windows = self._windows(geometry._band(g_in * (1.0 + _WINDOW_PAD)),
                                geometry._band(g_out * (1.0 - _WINDOW_PAD)), arcs)
        return windows, ce, R

    @staticmethod
    def _angle_windows(theta, half, whole):
        """Per disc, two angle intervals (lo1, hi1, lo2, hi2) relative to a
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

    def _sum_windows(self, out, windows, ce, R):
        """Add to out[k] the mass of the points of disc k's windows that lie
        in D(ce[k], R[k])."""
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
            k = owner[w]  # nondecreasing: windows are ordered by disc
            hit = np.abs(self.points[idx] - ce[k]) < R[k]
            out[k[0]:k[-1] + 1] += np.bincount(k[hit] - k[0],
                                               weights=self.masses[idx[hit]],
                                               minlength=k[-1] - k[0] + 1)

    def _windows(self, band_lo, band_hi, arcs):
        """(owner disc, start, length) of the nonempty runs of sorted points
        in the discs' windows (bands band_lo to band_hi, the angle intervals
        arcs), ordered by owner."""
        lo, hi = self.band_range
        band_lo = np.maximum(band_lo, lo)
        band_hi = np.minimum(band_hi, hi)
        n_bands = np.maximum(band_hi - band_lo + 1, 0)
        owner = np.repeat(np.arange(len(arcs)), n_bands)  # one entry per (disc, band)
        first = np.cumsum(n_bands) - n_bands
        base = _BAND_STRIDE * (band_lo[owner] + np.arange(len(owner)) - first[owner])
        bounds = base[:, None] + arcs[owner]  # lo1 hi1 lo2 hi2 in key units
        start = np.searchsorted(self.keys, bounds[:, 0::2].ravel(), "left")
        length = np.searchsorted(self.keys, bounds[:, 1::2].ravel(), "right") - start
        keep = length > 0
        return np.repeat(owner, 2)[keep], start[keep], length[keep]


class RadialDensityMeasure(DiscMeasure):
    """d(mu) = w(|z|) dA for a radial density w, on a grid.

    density_at_gap is the vectorized callable u -> w(1-u), u = 1-|z|; the
    measure reads nothing else of w.  Pseudo-disc masses come from a
    disc-centred polar rule, so they are accurate independently of any
    grid.  The grid defines the discrete support for pushforwards.
    """

    def __init__(self, density_at_gap, grid, name="radial_density"):
        self.density_at_gap = density_at_gap
        self.grid = grid
        self.name = name

    @classmethod
    def from_power(cls, beta, grid):
        """The density (1-|z|)^beta, a finite measure for beta > -1."""
        if beta <= -1.0:
            raise DomainError("power density needs beta > -1")
        return cls(lambda u: u ** beta, grid, f"power_density({beta:g})")

    @classmethod
    def from_weight(cls, w, grid):
        """The measure w dA of a RadialWeight w; it reads w's density alone."""
        return cls(w.density_at_gap, grid, name=f"density({w.name})")

    @property
    def support_size(self):
        return self.grid.node_count

    @functools.cached_property
    def _ring_masses(self):
        """Mass of one node of each grid ring: the density read once per ring."""
        return self.density_at_gap(self.grid.ring_gaps) * self.grid.ring_node_weights

    def support_blocks(self):
        """The grid's blocks of nodes with their masses, built from the rings
        for each block alone; no node-sized array is kept."""
        for nodes, rings, taken in self.grid.blocks():
            yield nodes, np.repeat(self._ring_masses[rings], taken)

    def pseudo_disc_masses(self, centers, r, center_gaps):
        """The mass depends on the centre's modulus and gap alone, so the
        polar rule runs once per distinct (|a|, 1-|a|) pair: once per ring
        of a lattice whose rings hold several angles."""
        mods = np.abs(np.atleast_1d(np.asarray(centers, dtype=complex)))
        gaps = np.atleast_1d(np.asarray(center_gaps, dtype=float))
        order = np.lexsort((gaps, mods))  # np.unique would load numpy.ma
        mods, gaps = mods[order], gaps[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (mods[1:] != mods[:-1]) | (gaps[1:] != gaps[:-1])
        c, R, g_out, _ = _disc_params(mods[first], gaps[first], r)
        nodes, w = geometry._polar_rule(c, R, g_out)
        vals = self.density_at_gap(nodes.ravel()).reshape(nodes.shape)
        masses = np.einsum("bij,bij->b", vals, np.broadcast_to(w, nodes.shape))
        out = np.empty(len(order))
        out[order] = masses[np.cumsum(first) - 1]
        return out


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
        gaps = np.abs(points)
        if not np.all(gaps < 1.0):  # also rejects NaN coordinates
            raise DomainError("atoms must lie inside the open disc")
        np.subtract(1.0, gaps, out=gaps)
        self.name = name
        self.points = points
        self.masses = masses
        # the deepest atom's gap min(1 - |p|); inf for an empty cloud
        self.min_gap = float(np.min(gaps, initial=np.inf))

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

    def support_blocks(self):
        """Views of _ATOM_BLOCK atoms at a time and of their masses."""
        for lo in range(0, self.support_size, _ATOM_BLOCK):
            yield self.points[lo:lo + _ATOM_BLOCK], self.masses[lo:lo + _ATOM_BLOCK]

    def pseudo_disc_masses(self, centers, r, center_gaps):
        """Mass of the atoms in Delta(a, r) for each centre a (gaps 1-|a|):
        each block of the support is read once and sorted alone, and its
        windows are summed _CENTER_BLOCK centres at a time."""
        centers = np.atleast_1d(np.asarray(centers, dtype=complex))
        out = np.zeros(len(centers))
        # starmap keeps no block alive once its index is built
        for index in itertools.starmap(_SupportIndex, self.support_blocks()):
            for s in range(0, len(centers), _CENTER_BLOCK):
                b = slice(s, s + _CENTER_BLOCK)
                index._sum_windows(out[b], *index._disc_windows(centers[b], center_gaps[b], r))
        return out


class _Pushforward(AtomicMeasure):
    """The atoms (phi(x), h(x) * mass(x)) over mu's support, computed from
    (phi, h, mu) one block of mu's support at a time whenever they are read,
    in the blocks of the constructor's checking pass, so every read gives
    the same bits.  points and masses build the whole arrays on each read.
    """

    def __init__(self, phi, h, mu):
        self.name = f"pushforward({mu.name})"
        self._phi, self._h, self._mu = phi, h, mu
        worst = None  # (|image|, point, image) of the first largest image off the disc
        negative, min_gap = False, math.inf
        for pts, masses in mu.support_blocks():
            images, masses = self._image_block(pts, masses)
            mods = np.abs(images)
            off = mods >= 1.0
            if np.any(off):
                i = int(np.argmax(np.where(off, mods, 0.0)))
                if worst is None or mods[i] > worst[0]:
                    worst = (mods[i], pts[i], images[i])
            negative = negative or bool(np.any(masses < 0.0))
            min_gap = np.minimum(min_gap, np.min(1.0 - mods))  # NaN carries, as np.min
        if worst is not None:
            _, pt, image = worst
            raise SelfMapViolationError(f"map sent {pt} to {image} (|.| = {abs(image):.6f})")
        if negative:
            raise DomainError("pushforward density h must be nonnegative")
        self.min_gap = float(min_gap)

    def _image_block(self, pts, masses):
        """The images of a block of mu's support and their masses."""
        images = np.empty(len(pts), dtype=complex)
        images[:] = self._phi(pts)
        if self._h is not None:
            masses = np.multiply(np.asarray(self._h(pts), dtype=float), masses)
        return images, masses

    @property
    def support_size(self):
        return self._mu.support_size

    def support_blocks(self):
        """The atoms and their masses over the blocks of mu's support; the
        stream keeps no block alive once it has handed it out."""
        return itertools.starmap(self._image_block, self._mu.support_blocks())

    @property
    def points(self):
        return np.concatenate([np.empty(0, dtype=complex), *(p for p, _ in self.support_blocks())])

    @property
    def masses(self):
        return np.concatenate([np.empty(0), *(m for _, m in self.support_blocks())])


def pushforward(phi, h, mu):
    """Weighted pushforward: atoms (phi(x), h(x) * mass(x)) over mu's support.

    The discrete change of variable int g d(pushforward) = int (g o phi) h
    d(mu) then holds exactly, term by term.  h = None means h == 1.  The
    result is an AtomicMeasure that recomputes its atoms from (phi, h, mu)
    whenever they are read (_Pushforward), so it holds no support-sized
    array.  One checking pass over mu's support records the deepest image
    gap, min_gap.  A map that leaves the disc raises SelfMapViolationError
    naming the first point of largest image modulus; then a negative h
    raises DomainError.
    """
    return _Pushforward(phi, h, mu)
