"""How often the embedding verdicts agree with their exponent oracles.

For the power weight (1-|z|)^alpha against the measure (1-|z|)^beta dA the
classical characterization decides each embedding in closed form, through
one exponent:

  EMB_SUP (p <= q)  e = beta + 2 - (alpha + 2) q / p - n q; the embedding is
                    bounded iff e >= 0 and compact iff e > 0;
  EMB_LS  (q < p)   with s = p / (p - q), the defining integral is finite
                    iff s (beta - alpha - n q) + alpha + 1 > 0.

Each case places beta at a margin from the boundary (in those exponent
units) and compares the verdict with the oracle: right, inconclusive, or
wrong.  The counts are pinned: a change that lowers the inconclusive or
wrong count of a row updates its pin, and one that raises either fails
here.  README's "where a verdict cannot be trusted" gives the bands.
"""

import collections

import pytest

from bergman import (
    QuadratureGrid,
    RadialDensityMeasure,
    RadialWeight,
    embedding_ls_criterion,
    embedding_sup_criterion,
)

ALPHAS = (-0.5, 0.0, 1.0, 2.0)
ORDERS = (0, 1)
MARGINS = (0.0, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2, 0.4, -0.4, 1.0, -1.0)
SUP_PAIRS = ((1, 1), (2, 2), (1, 2), (2, 3))
LS_PAIRS = ((2, 1), (3, 2), (4, 1))
GRID_LEVEL = 11
LS_LEVEL = 12

# (verdict meaning the oracle's True, verdict meaning its False)
SUP_BOUNDED = ("bounded-consistent", "divergent")
SUP_COMPACT = ("vanishing-tail", "non-vanishing")
LS_FINITE = ("bounded-consistent", "divergent")


def score(verdict, truth, labels):
    """Score a verdict against the oracle: right, inconclusive or wrong."""
    if verdict not in labels:
        return "inconclusive"
    return "right" if (verdict == labels[0]) == truth else "wrong"


@pytest.fixture(scope="module")
def outcomes():
    """{row: [(margin, score)]} over every case with beta > -1."""
    grid = QuadratureGrid(GRID_LEVEL)
    rows = collections.defaultdict(list)
    for alpha in ALPHAS:
        w = RadialWeight.power(alpha)
        for n in ORDERS:
            for margin in MARGINS:
                for p, q in SUP_PAIRS:
                    beta = margin - 2.0 + (alpha + 2.0) * q / p + n * q
                    if beta <= -1.0:
                        continue
                    mu = RadialDensityMeasure.from_power(beta, grid)
                    report = embedding_sup_criterion(p, q, n, w, mu)
                    rows["sup-bounded"].append(
                        (margin, score(report.verdict, margin >= 0, SUP_BOUNDED)))
                    rows["sup-compact"].append(
                        (margin, score(report.compact_verdict, margin > 0, SUP_COMPACT)))
                for p, q in LS_PAIRS:
                    s = p / (p - q)
                    beta = (margin - alpha - 1.0) / s + alpha + n * q
                    if beta <= -1.0:
                        continue
                    mu = RadialDensityMeasure.from_power(beta, grid)
                    report = embedding_ls_criterion(p, q, n, w, mu, level=LS_LEVEL)
                    rows["ls"].append((margin, score(report.verdict, margin > 0, LS_FINITE)))
    return rows


# row: (cases, right, inconclusive, wrong, the margins of the wrong cases)
PINNED = {
    "sup-bounded": (348, 284, 32, 32, {-0.05}),
    "sup-compact": (348, 220, 64, 64, {0.05, 0.1}),
    "ls": (254, 178, 4, 72, {0.05, 0.1, 0.2}),
}


@pytest.mark.parametrize("row", sorted(PINNED))
def test_verdict_counts_pinned(outcomes, row):
    cases = outcomes[row]
    counts = collections.Counter(s for _, s in cases)
    got = (len(cases), counts["right"], counts["inconclusive"], counts["wrong"],
           {m for m, s in cases if s == "wrong"})
    assert got == PINNED[row]
