"""Criterion functionals for embeddings and generalized composition operators.

Each criterion evaluates one of the characterizing quantities:

  EMB_SUP            sup over basepoints of
                     mu(Delta(z,r)) / (wS(z)^{q/p} (1-|z|)^{nq}),   p <= q
  EMB_LS             the L^s norm, s = p/(p-q), of
                     mu(Delta(z,r)) / (wS(z) (1-|z|)^{nq})
                     against the tail-density weight,               q < p
  OP_PUSHFORWARD_LS  EMB_LS applied to the pushforward of |u|^q nu
  BEREZIN_SUP        sup over basepoints a of the kernel integral
                     int |u|^q (1-|a|)^{gq} |1-conj(a)phi|^{-(g+n)q}
                     d(nu) / wS(a)^{q/p},                           p <= q
  HINF_SUP           sup over z of |u(z)| / (wS(phi(z))^{1/p}
                     (1-|phi(z)|)^n)

where wS is the Carleson-square mass of the weight.  EMB_SUP and EMB_LS
share one profile (_profile), and every criterion divides by the same
Carleson scale (_carleson_scale).  Suprema over the disc are realized as
maxima over a boundary-refined basepoint lattice, read over dyadic bands:
band k holds the gaps 1-|z| in (2^-(k+1), 2^-k] (geometry._band), so the
bands >= k are the gaps <= 2^-k.  Every report carries dyadic tail suprema
plus a refinement signal - what deepening the lattice by two dyadic levels
does to the tail supremum, measured as the ratio of the deepest band maximum
to the band two levels up (for the integral criteria, of the full integral
to its truncation two levels up).  Verdicts are decided from that signal,
never from a single number:

  divergent          deepening grew the statistic by >= 25%;
  bounded-consistent it changed by < 10%;
  inconclusive       in between.

Compactness is estimated from the tail suprema over 1-delta <= |a| with
delta halving: "vanishing-tail" needs three consecutive halvings that each
cut the tail supremum by >= 30%, "non-vanishing" needs three that leave it
essentially flat (>= 90%).  Everything in between stays inconclusive.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import geometry
from .errors import DomainError, SelfMapViolationError
from .measures import AtomicMeasure, RadialDensityMeasure, _ring_layout, pushforward
from .spaces import _ring_pass, apply_operator, bergman_norm, norm_against_measure
from .weights import gamma_exponent

__all__ = [
    "CriterionReport",
    "embedding_sup_criterion",
    "embedding_ls_criterion",
    "op_pushforward_criterion",
    "berezin_criterion",
    "hinf_criterion",
    "verify_gamma",
    "operator_norm_lower_bound",
    "norm_equivalence_ratios",
    "derivative_bound_sup",
]

_MASS_FLOOR = 1e-300

# verdict policy constants (see the module docstring)
DIVERGENT_GROWTH = 1.25
STABLE_GROWTH = 1.10
TAIL_DECAY = 0.70
TAIL_FLAT = 0.90


@dataclass
class CriterionReport:
    """Evaluated criterion functional with refinement and tail diagnostics;
    the fields are the keys of its JSON form (to_json), where each sample's
    basepoint splits into its real and imaginary parts."""

    criterion: str
    params: dict
    samples: list  # (basepoint complex, value)
    statistic: float
    statistic_kind: str  # "sup" or "ls_norm"
    tail: list  # (delta, tail statistic over 1-delta <= |.|)
    refinement: dict  # shallow/deep statistics and their growth
    verdict: str
    compact_verdict: str
    truncated: int
    notes: list

    def to_json(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["samples"] = [[z.real, z.imag, v] for z, v in self.samples]
        return out


def _growth_verdict(full, shallow):
    if full <= _MASS_FLOOR:
        return 1.0, "bounded-consistent"
    if shallow <= _MASS_FLOOR:
        return math.inf, "divergent"
    growth = full / shallow
    if growth >= DIVERGENT_GROWTH:
        return growth, "divergent"
    if growth < STABLE_GROWTH:
        return growth, "bounded-consistent"
    return growth, "inconclusive"


def _tail(bands, vals, reduce):
    """(2^-k, reduce(vals over bands >= k, the gaps <= 2^-k)) for k = 0 down
    to the deepest band."""
    return [(2.0 ** (-k), float(reduce(vals[bands >= k])))
            for k in range(int(np.max(bands, initial=-1)) + 1)]


def _compact_from_tail(tail):
    if len(tail) < 4:
        return "inconclusive"
    vals = [v for _, v in tail]
    if vals[0] <= _MASS_FLOOR:
        return "vanishing-tail"
    last = vals[-3:]
    prev = vals[-4:-1]
    ratios = [l / p if p > _MASS_FLOOR else (0.0 if l <= _MASS_FLOOR else math.inf)
              for l, p in zip(last, prev)]
    if all(r <= TAIL_DECAY for r in ratios):
        return "vanishing-tail"
    if all(r >= TAIL_FLAT for r in ratios) and vals[-1] > _MASS_FLOOR:
        return "non-vanishing"
    return "inconclusive"


def _band_peaks(bands, vals):
    """{band k: index of the band's largest value (first on ties)}, ascending
    in k, for values in the dyadic bands of geometry._band."""
    peaks = {}
    for b in np.flatnonzero(np.bincount(bands)):  # np.unique would load numpy.ma
        idx = np.nonzero(bands == b)[0]
        peaks[int(b)] = int(idx[np.argmax(vals[idx])])
    return peaks


def _sup_report(criterion, params, pts, gaps, vals, truncated=0, notes=None):
    order = np.lexsort((np.angle(pts), -gaps))  # shallow to deep, deterministic
    pts, gaps, vals = pts[order], gaps[order], vals[order]
    sup_full = float(np.max(vals)) if len(vals) else 0.0
    min_gap = float(np.min(gaps)) if len(gaps) else 1.0
    bands = geometry._band(gaps)
    peaks = {k: float(vals[i]) for k, i in _band_peaks(bands, vals).items()}
    # Refinement signal: deepening the lattice by two dyadic levels adds the
    # two deepest bands; the statistic that deepening moves is the tail
    # supremum, so compare the deepest band against the one two levels up.
    ks = sorted(peaks)
    if len(ks) >= 3 and ks[-1] - 2 in peaks:
        shallow_stat = peaks[ks[-1] - 2]
        deep_stat = peaks[ks[-1]]
        growth, verdict = _growth_verdict(deep_stat, shallow_stat)
    else:
        # the lattice spans under three dyadic levels: a plain maximum over
        # a compact range, no refinement signal
        shallow_stat = deep_stat = sup_full
        growth, verdict = 1.0, "bounded-consistent"
    tail = _tail(bands, vals, np.max)
    return CriterionReport(
        criterion=criterion,
        params=params,
        samples=list(zip(pts.tolist(), vals.tolist())),
        statistic=sup_full,
        statistic_kind="sup",
        tail=tail,
        refinement={
            "shallow": shallow_stat,
            "full": deep_stat,
            "growth": growth,
            "shallow_min_gap": min_gap * 4.0,
            "full_min_gap": min_gap,
        },
        verdict=verdict,
        compact_verdict=_compact_from_tail(tail),
        truncated=truncated,
        notes=notes or [],
    )


# ---------------------------------------------------------------------------
# embedding criteria
# ---------------------------------------------------------------------------

def _basepoints(basepoints, depth):
    """(points, gaps) of the caller's basepoints, or of the thin probe
    lattice to the given depth when there are none."""
    if basepoints is None:
        return geometry.probe_lattice(depth=depth)
    pts = np.asarray(basepoints, dtype=complex)
    return pts, 1.0 - np.abs(pts)


def _carleson_scale(w, gaps, power):
    """The Carleson scale wS^power at gaps, the mask of its values that are
    finite and above the mass floor, and the count of the others (the
    report's truncated points)."""
    ws = w.carleson_mass_at_gap(gaps) ** power
    keep = np.isfinite(ws) & (ws > _MASS_FLOOR)
    return ws, keep, int(np.sum(~keep))


def _profile(w, mu, centers, gaps, r, n, q, power):
    """The paper's quantity mu(Delta(z, r)) / (wS(z)^power (1-|z|)^{nq}) at
    the centres z (gaps their 1-|z|) where the Carleson scale is kept:
    (values, keep mask, truncated count)."""
    masses = mu.pseudo_disc_masses(centers, r, gaps)
    ws, keep, truncated = _carleson_scale(w, gaps, power)
    return masses[keep] / (ws[keep] * gaps[keep] ** (n * q)), keep, truncated


def embedding_sup_criterion(p, q, n, w, mu, r=0.3, basepoints=None, depth=14):
    """Supremum criterion for p <= q over a boundary-refined basepoint lattice."""
    if not (0 < p <= q):
        raise DomainError("the supremum criterion needs 0 < p <= q")
    if n < 0:
        raise DomainError("n must be nonnegative")
    pts, gaps = _basepoints(basepoints, depth)
    vals, keep, truncated = _profile(w, mu, pts, gaps, r, n, q, q / p)
    params = {"p": p, "q": q, "n": n, "r": r, "weight": w.name,
              "measure": getattr(mu, "name", "measure"), "convention": "standard"}
    return _sup_report("EMB_SUP", params, pts[keep], gaps[keep], vals,
                       truncated=truncated)


def embedding_ls_criterion(p, q, n, w, mu, r=0.3, level=16):
    """L^{p/(p-q)} criterion for q < p against the tail-density weight.

    For radial densities the profile is evaluated on the radial rings of the
    grid layout (the quantity is rotation invariant); atomic and pointwise
    measures are evaluated on a polar mesh of 32 angles per ring whose depth
    follows the measure's own resolution.  The refinement signal compares
    the integral with its part over the bands above the two deepest.
    """
    if not (0 < q < p):
        raise DomainError("the L^s criterion needs 0 < q < p")
    if n < 0:
        raise DomainError("n must be nonnegative")
    s = p / (p - q)
    notes = []
    if isinstance(mu, AtomicMeasure) and mu.support_size:
        # evaluation mesh capped at the atomic resolution
        level = min(level, max(3, int(geometry._band(mu.min_gap)) - 1))
        notes.append(f"evaluation depth capped at the atom resolution (level {level})")
    ring_gaps, ring_masses, _ = _ring_layout(level)
    ring_w = 2.0 * ring_masses  # full-circle ring masses
    if isinstance(mu, RadialDensityMeasure):
        gaps, cell_w = ring_gaps, ring_w
        centers = (1.0 - gaps).astype(complex)
    else:
        n_ang = 32
        centers = geometry._ring_points(ring_gaps, np.full(len(ring_gaps), n_ang))
        gaps = np.repeat(ring_gaps, n_ang)
        cell_w = np.repeat(ring_w / n_ang, n_ang)
    bvals, keep, truncated = _profile(w, mu, centers, gaps, r, n, q, 1.0)
    centers, gaps = centers[keep], gaps[keep]
    bands = geometry._band(gaps)
    contrib = bvals ** s * (w.tail_density_at_gap(gaps) * cell_w[keep])
    total = float(np.sum(contrib))
    shallow = float(np.sum(contrib[bands <= level - 2]))
    growth, verdict = _growth_verdict(total, shallow)
    notes.append("q < p: boundedness and compactness coincide")
    order = np.argsort(-gaps, kind="stable")
    params = {"p": p, "q": q, "n": n, "r": r, "s": s, "weight": w.name,
              "measure": getattr(mu, "name", "measure"), "level": level,
              "convention": "standard"}
    return CriterionReport(
        criterion="EMB_LS",
        params=params,
        samples=list(zip(centers[order].tolist(), bvals[order].tolist())),
        statistic=total ** (1.0 / s) if total > 0 else 0.0,
        statistic_kind="ls_norm",
        tail=_tail(bands, contrib, np.sum),  # of the defining integral, not a sup
        refinement={
            "shallow": shallow,
            "full": total,
            "growth": growth,
            "shallow_min_gap": 2.0 ** (-(level - 1)),
            "full_min_gap": float(np.min(gaps)) if len(gaps) else 1.0,
        },
        verdict=verdict,
        compact_verdict={"bounded-consistent": "vanishing-tail",
                         "divergent": "non-vanishing"}.get(verdict, "inconclusive"),
        truncated=truncated,
        notes=notes,
    )


def op_pushforward_criterion(op, p, q, w, nu, r=0.3, level=12):
    """Operator criterion for q < p: EMB_LS, evaluated to the given level, on
    the pushforward of |u|^q nu."""
    if not (0 < q < p):
        raise DomainError("the operator pushforward criterion needs 0 < q < p")
    pf = pushforward(op.phi, lambda z: np.abs(op.u(z)) ** q, nu)
    report = embedding_ls_criterion(p, q, op.n, w, pf, r=r, level=level)
    report.criterion = "OP_PUSHFORWARD_LS"
    report.params.update({"phi": repr(op.phi), "u": repr(op.u), "n": op.n,
                          "pushforward_atoms": pf.support_size})
    return report


# ---------------------------------------------------------------------------
# Berezin-type and H-infinity criteria
# ---------------------------------------------------------------------------

# Berezin sweep blocks: basepoint rows per task, support nodes per slice.  A
# 72 x 1024 slice keeps one 2 x 72 x 1024 buffer (about 1.2 MB) per worker,
# so the sweep runs from cache instead of streaming a full rows x support
# block, and each numpy call is long enough that two workers rarely wait on
# each other for the GIL.  Both sizes are fixed, never derived from the CPU
# count: OpenBLAS rounds a matmul row by a kernel that depends on the
# matrix's shape, so a value depends on its chunk's size.
_SWEEP_ROWS = 72
_SWEEP_SLICE = 1024


def _sweep_pool(n_pts):
    """A thread pool for sweeping n_pts basepoints: one worker per CPU this
    process may run on, at most one per chunk of _SWEEP_ROWS basepoints."""
    # the affinity mask (taskset, cgroup cpusets) where the OS reports one
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    # imported here: loading the pool module adds about 0.7 MB to the peak
    # RSS of every CLI process, and only this sweep uses it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=max(1, min(cpus, -(-n_pts // _SWEEP_ROWS))))


def _kernel_sweep(pts, phin, uq, e, out=None, pool=None):
    """Add sum_j |1 - conj(a) phin_j|^(-e) uq_j to out (default zeros) for
    every basepoint a in pts, and return out.

    The arithmetic is real.  For a chunk of R basepoints a = ax + i ay, one
    matmul of the rows [ax, ay] and [-ay, ax] against [Re phin; Im phin]
    gives Re(conj(a) phin) and Im(conj(a) phin) for a whole slice; then
    s = (1 - Re)^2 + Im^2 and the kernel is exp(-e/2 log s), in place, as in
    _ring_kernel_means.

    Each chunk of _SWEEP_ROWS basepoints accumulates its sums over support
    slices of _SWEEP_SLICE nodes in a fixed order, inside one thread, so the
    result does not depend on how many workers share the chunks.  A support
    swept in several calls, in blocks that are multiples of _SWEEP_SLICE,
    adds the same slices in the same order as one call over all of it.  The
    chunks run on pool, which a caller sweeping many blocks opens once
    (default: a _sweep_pool for this call).
    """
    out = np.zeros(len(pts)) if out is None else out
    xy = np.stack([phin.real, phin.imag])
    neg_half_e = -0.5 * e

    def sweep(start):
        a = pts[start:start + _SWEEP_ROWS]
        rows = len(a)
        basis = np.empty((2 * rows, 2))
        basis[:rows, 0], basis[:rows, 1] = a.real, a.imag
        basis[rows:, 0], basis[rows:, 1] = -a.imag, a.real
        buf = np.empty((2 * rows, _SWEEP_SLICE))
        acc = out[start:start + _SWEEP_ROWS]
        for lo in range(0, len(phin), _SWEEP_SLICE):
            hi = min(lo + _SWEEP_SLICE, len(phin))
            b = buf[:, :hi - lo]
            np.matmul(basis, xy[:, lo:hi], out=b)  # Re(conj(a) w) rows, then Im
            s, im = b[:rows], b[rows:]
            np.subtract(1.0, s, out=s)
            np.square(s, out=s)
            np.square(im, out=im)
            s += im  # |1 - conj(a) w|^2
            np.log(s, out=s)
            s *= neg_half_e
            np.exp(s, out=s)
            acc += s @ uq[lo:hi]

    starts = range(0, len(pts), _SWEEP_ROWS)
    if pool is None:
        with _sweep_pool(len(pts)) as own:
            list(own.map(sweep, starts))
    else:
        list(pool.map(sweep, starts))
    return out


def berezin_criterion(op, p, q, w, nu, gamma, basepoints=None, *, grid):
    """Kernel-integral criterion for p <= q.

    The kernel integral runs over the discrete support of the measure nu,
    read in the measure's own blocks (nu.support_blocks); each block is
    swept into per-basepoint sums that persist across blocks, in the order
    one sweep over the whole support would add them.  gamma=None takes the
    kernel exponent from w (_validated_gamma), with a warning note when no
    escalation step passes the kernel-domination test on the grid; a gamma
    given by the caller is used as is, with a note that it is not
    validated.  Either way the sweep runs.

    The default basepoint lattice stops two dyadic levels above the grid
    that nu's support lives on: deeper basepoints put the kernel peak
    beyond the grid's resolution and saturate the sweep instead of probing
    it.
    """
    if not (0 < p <= q):
        raise DomainError("the Berezin criterion needs 0 < p <= q")
    notes = []
    if gamma is None:
        gamma, validated = _validated_gamma(w, p, grid)
        if not validated:
            notes.append("warning: gamma failed the kernel-domination test")
    else:
        notes.append("gamma not validated against the kernel-domination test")
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    pts, gaps = _basepoints(basepoints, max(4, grid.levels - 2))
    ws, keep, truncated = _carleson_scale(w, gaps, q / p)
    pts, gaps, ws = pts[keep], gaps[keep], ws[keep]
    integral = np.zeros(len(pts))
    with _sweep_pool(len(pts)) as pool:  # one pool for every block
        for pts_nu, masses_nu in nu.support_blocks():
            uq = np.abs(op.u(pts_nu)) ** q * masses_nu
            phin = np.asarray(op.phi(pts_nu), dtype=complex)
            if np.any(np.abs(phin) >= 1.0):
                raise SelfMapViolationError("self-map left the open disc on the support")
            _kernel_sweep(pts, phin, uq, (gamma + op.n) * q, out=integral, pool=pool)
    vals = gaps ** (gamma * q) * integral / ws
    params = {"p": p, "q": q, "n": op.n, "gamma": gamma, "weight": w.name,
              "measure": getattr(nu, "name", "measure"), "phi": repr(op.phi),
              "u": repr(op.u), "convention": "standard"}
    return _sup_report("BEREZIN_SUP", params, pts, gaps, vals,
                       truncated=truncated, notes=notes)


def hinf_criterion(op, p, w, grid):
    """Supremum criterion for a bounded-target operator, with the containment
    branch for compactness.

    The report keeps one representative per dyadic band of 1-|phi|, the
    band's first largest value.  The grid's nodes are built and swept a block
    at a time (grid.blocks), so no whole-grid array is made; the blocks'
    band peaks, in block order, take a second first-on-ties pass, so the
    choice is the same as over the whole grid at once.
    """
    if p <= 0:
        raise DomainError("p must be positive")
    blocks = []  # per block: value, node, image gap and band of each band peak
    truncated, sup_phi_grid = 0, 0.0
    for z, _, _ in grid.blocks():
        pgaps = np.abs(np.asarray(op.phi(z), dtype=complex))
        if np.any(pgaps >= 1.0):
            raise SelfMapViolationError("self-map left the open disc on the grid")
        sup_phi_grid = max(sup_phi_grid, float(np.max(pgaps)))
        np.subtract(1.0, pgaps, out=pgaps)
        uvals = np.abs(op.u(z))
        ws, keep, dropped = _carleson_scale(w, pgaps, 1.0 / p)
        truncated += dropped
        quantity = uvals[keep] / (ws[keep] * pgaps[keep] ** op.n)
        zgaps = pgaps[keep]
        bands = geometry._band(zgaps)
        i = list(_band_peaks(bands, quantity).values())
        blocks.append((quantity[i], z[keep][i], zgaps[i], bands[i]))
    vals, pts, gaps, bands = (np.concatenate(a) for a in zip(*blocks))
    i = list(_band_peaks(bands, vals).values())
    vals, pts, gaps = vals[i], pts[i], gaps[i]

    params = {"p": p, "n": op.n, "weight": w.name, "phi": repr(op.phi),
              "u": repr(op.u), "convention": "standard"}
    report = _sup_report("HINF_SUP", params, pts, gaps, vals, truncated=truncated)
    sup_phi_structural = op.phi.sup_abs()
    report.params["sup_phi_grid"] = sup_phi_grid
    report.params["sup_phi_structural"] = float(sup_phi_structural)
    if sup_phi_structural < 1.0 - 1e-9:
        report.compact_verdict = "vanishing-tail"
        report.notes.append(
            f"image strictly inside the disc (sup |phi| = {sup_phi_structural:.6g})"
        )
    return report


# ---------------------------------------------------------------------------
# gamma verification, norm probes
# ---------------------------------------------------------------------------

# Template angles per chunk of _ring_kernel_means: a 21-basepoint ladder
# keeps one 21 x 4096 buffer (about 0.7 MB) however fine the grid.
_TEMPLATE_CHUNK = 4096


def _ring_kernel_means(a, a_gaps, ring_gaps, n_theta, e):
    """Angular means of the kernel |1 - a rho e^{i theta}|^{-e} on rings.

    For each basepoint radius a (with gap a_gaps = 1 - a) and each ring
    radius rho (with gap ring_gaps = 1 - rho), the mean over the n_theta
    midpoint angles theta_j = (j + 1/2) 2 pi / n_theta of a grid ring;
    shape (len(a), len(ring_gaps)).  The distance is taken in the
    cancellation-free form

        |1 - a rho e^{i theta}|^2 = (u_a + u - u_a u)^2 + 4 a rho sin^2(theta/2)

    (u_a, u the two gaps), and the template sin^2(theta_j / 2) is shared by
    every ring with n_theta angles.  It is symmetric about theta = pi, so
    only the first half circle is summed, _TEMPLATE_CHUNK angles at a time,
    the chunks' sums added in chunk order.  With s that squared distance,
    the kernel is exp(-e/2 log s), taken in place, as in _kernel_sweep.
    """
    half = (n_theta + 1) // 2
    template = np.sin((np.arange(half) + 0.5) * (math.pi / n_theta)) ** 2
    near = a_gaps[:, None] + ring_gaps[None, :] - a_gaps[:, None] * ring_gaps[None, :]
    spread = 4.0 * a[:, None] * (1.0 - ring_gaps)[None, :]
    neg_half_e = -0.5 * e
    out = np.empty(near.shape)
    for k in range(len(ring_gaps)):
        near_sq = (near[:, k] ** 2)[:, None]

        def kernel(lo, hi):
            buf = np.multiply(spread[:, k, None], template[None, lo:hi])
            buf += near_sq
            np.log(buf, out=buf)
            buf *= neg_half_e
            return np.exp(buf, out=buf)

        total = np.zeros(len(a))
        for lo in range(0, half, _TEMPLATE_CHUNK):
            total += np.sum(kernel(lo, lo + _TEMPLATE_CHUNK), axis=1)
        total *= 2.0
        if n_theta % 2:  # the midpoint theta = pi has no mirror partner
            total -= kernel(half - 1, half)[:, 0]
        out[:, k] = total / n_theta
    return out


def verify_gamma(w, p, gamma, basepoints=None, *, grid):
    """Check the kernel-domination inequality behind the Berezin criterion.

    Evaluates the ratio of int w(z) |1-conj(a) z|^{-gamma p} dA(z) to
    tail(a) / (1-|a|)^{gamma p - 1} over an |a|-ladder up to 0.999.  Passes
    when the ratio is bounded along the ladder (log-log tail slope <= 0.05)
    and stable (< 10%) under dropping the grid's two deepest levels.

    The integrand is radial in z up to the kernel, so the grid integral is
    summed ring by ring: each ring contributes its density times its
    full-circle mass times the angular mean of the kernel over its nodes.
    The angular nodes of a ring depend only on its dyadic band, so one
    template of sin^2(theta/2) values per band (half circle, by symmetry)
    serves every ring and basepoint of that band, with the distance in the
    cancellation-free form of _ring_kernel_means.
    """
    if gamma <= 0 or p <= 0:
        raise DomainError("gamma and p must be positive")
    if basepoints is None:
        a_gaps = 2.0 ** (-np.arange(21) / 2.0)  # |a| from 0 up to ~0.999
    else:
        a_gaps = 1.0 - np.abs(np.asarray(basepoints, dtype=complex))
        a_gaps = a_gaps[a_gaps > 0]
    a_vals = 1.0 - a_gaps
    e = gamma * p
    ring_mass = w.density_at_gap(grid.ring_gaps) * grid.ring_weights
    contrib = np.empty((len(a_vals), len(grid.ring_gaps)))
    for n_theta in sorted(set(grid.ring_counts.tolist())):  # np.unique would load numpy.ma
        rings = np.nonzero(grid.ring_counts == n_theta)[0]
        means = _ring_kernel_means(a_vals, a_gaps, grid.ring_gaps[rings], n_theta, e)
        contrib[:, rings] = ring_mass[rings] * means
    shallow_mask = geometry._band(grid.ring_gaps) <= grid.levels - 2
    lhs = np.sum(contrib, axis=1)
    lhs_shallow = np.sum(contrib[:, shallow_mask], axis=1)
    rhs = w.tail_integral_at_gap(a_gaps) / a_gaps ** (e - 1.0)
    ratio = lhs / rhs
    ratio_shallow = lhs_shallow / rhs
    worst = float(np.max(ratio))
    worst_shallow = float(np.max(ratio_shallow))
    drift = abs(worst - worst_shallow) / max(worst, 1e-300)
    # boundedness along the ladder: slope of log ratio vs log(1/gap), deep half
    half = len(a_gaps) // 2
    x = -np.log(a_gaps[half:])
    y = np.log(np.maximum(ratio[half:], 1e-300))
    slope = float(np.polyfit(x, y, 1)[0])
    passed = bool(drift < 0.10 and slope <= 0.05 and np.isfinite(worst))
    return passed, worst


# _validated_gamma multiplies gamma by 1.5 at most this many times.
_GAMMA_RETRIES = 3


def _validated_gamma(w, p, grid):
    """(gamma, passed): gamma_exponent(w, p), multiplied by 1.5 until
    verify_gamma passes on the grid, at most _GAMMA_RETRIES times; the last
    gamma tried, with passed False, when no step passes."""
    gamma = gamma_exponent(w, p)
    for _ in range(_GAMMA_RETRIES):
        if verify_gamma(w, p, gamma, grid=grid)[0]:
            return gamma, True
        gamma *= 1.5
    return gamma, verify_gamma(w, p, gamma, grid=grid)[0]


def operator_norm_lower_bound(op, p, q, w, nu, family, grid, target="lq"):
    """Empirical operator-norm lower bound from a probe family.

    max over the family of |u * f^{(n)} o phi|_target / |f| in the source
    space, the source norm taken on the grid; target "lq" is the L^q norm
    over the measure nu's support, "hinf" the grid supremum (nu unused).
    Zero-norm family members are skipped with a warning.
    """
    if not family:
        raise DomainError("probe family must be nonempty")
    best = 0.0
    for f in family:
        den = bergman_norm(f, p, w, grid)
        if not np.isfinite(den) or den < 1e-200:
            warnings.warn("skipping a probe function with vanishing source norm")
            continue
        g = apply_operator(op, f)
        if target == "lq":
            num = norm_against_measure(g, q, nu)
        elif target == "hinf":
            num = float(np.max(_ring_pass([g], grid, orders=(0,))[1]))
        else:
            raise DomainError(f"unknown target {target!r}")
        best = max(best, num / den)
    return best


def norm_equivalence_ratios(functions, p, w, grid):
    """|f| against w's tail density over |f| against w, per function: each
    density is read once per ring, and every norm comes from one pass of
    the family over the grid."""
    dens = [w.tail_density_at_gap(grid.ring_gaps), w.density_at_gap(grid.ring_gaps)]
    sums, _ = _ring_pass(functions, grid, p, dens)
    return np.array([float(tail_sum ** (1.0 / p)) / float(dens_sum ** (1.0 / p))
                     for tail_sum, dens_sum in sums])


def derivative_bound_sup(functions, orders, p, w, grid):
    """Empirical constants in the pointwise derivative bound: for each
    function f (rows) and order n (columns), the sup over the grid of
    |f^(n)(z)| wS(z)^{1/p} (1-|z|)^n / |f|_{A^p_w}, the norm being
    bergman_norm(f, p, w, grid).

    One pass of the family over the grid gives every norm and, per ring,
    every largest |f^(n)|; the factor after |f^(n)| depends on the ring
    alone and is positive, so the supremum is taken over the ring peaks
    (rounding keeps the product monotone, so this is the node-wise maximum
    bit for bit), and the Carleson factor is read once per grid."""
    sums, peaks = _ring_pass(functions, grid, p, [w.density_at_gap(grid.ring_gaps)], orders)
    ws = w.carleson_mass_at_gap(grid.ring_gaps) ** (1.0 / p)
    out = np.empty((len(functions), len(orders)))
    for i, (f_sums, f_peaks) in enumerate(zip(sums, peaks)):
        norm = float(f_sums[0] ** (1.0 / p))
        out[i] = [np.max(pk * ws * grid.ring_gaps ** n) / norm for pk, n in zip(f_peaks, orders)]
    return out
