"""Statistical models for BDGS: estimate from seeds, generate at scale.

BDGS's procedure (Section 5) is: take a representative real-world data
set, estimate the parameters of a data model from it, then generate
synthetic data from the fitted model at any requested volume.  This
module holds the model-fitting and distance machinery shared by the
text/graph/table generators:

* Zipf (power-law) rank-frequency fitting for word distributions,
* discrete power-law fitting for graph degree distributions,
* per-column empirical models (histograms / category frequencies) for
  tables,
* distribution distances (Kolmogorov-Smirnov, total variation) used by
  the veracity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.keyed import draw_chunks


# ---------------------------------------------------------------------------
# Zipf / power-law fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZipfModel:
    """A bounded Zipfian distribution over ``vocab_size`` ranks.

    ``P(rank r) ~ 1 / r**alpha`` for ``r`` in 1..vocab_size.
    """

    alpha: float
    vocab_size: int

    def __post_init__(self) -> None:
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

    def probabilities(self) -> np.ndarray:
        ranks = np.arange(1, self.vocab_size + 1, dtype=np.float64)
        weights = ranks ** (-self.alpha)
        return weights / weights.sum()

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` zero-based ranks (word ids) from the model."""
        if count < 0:
            raise ValueError("count must be non-negative")
        cdf = np.cumsum(self.probabilities())
        index = np.empty(count, dtype=np.int64)
        for start, part in draw_chunks(cdf, count, rng):
            index[start:start + part.size] = part
        return index


def fit_zipf(frequencies: np.ndarray) -> ZipfModel:
    """Fit a Zipf exponent to observed frequencies by log-log regression.

    ``frequencies`` are raw counts per item (any order); the fit uses the
    rank-frequency curve, ignoring zero counts.
    """
    counts = np.asarray(frequencies, dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size == 0:
        raise ValueError("cannot fit Zipf to empty frequency data")
    ranked = np.sort(counts)[::-1]
    if ranked.size == 1:
        return ZipfModel(alpha=1.0, vocab_size=1)
    ranks = np.arange(1, ranked.size + 1, dtype=np.float64)
    slope, _ = np.polyfit(np.log(ranks), np.log(ranked), 1)
    return ZipfModel(alpha=max(0.0, -float(slope)), vocab_size=int(ranked.size))


def fit_degree_powerlaw(degrees: np.ndarray, d_min: int = 2) -> float:
    """MLE exponent of a discrete power law for a degree distribution.

    Uses the continuous approximation ``gamma = 1 + n / sum(ln(d / d_min))``
    restricted to degrees >= ``d_min`` (Clauset-Shalizi-Newman).
    """
    degs = np.asarray(degrees, dtype=np.float64)
    degs = degs[degs >= d_min]
    if degs.size == 0:
        raise ValueError(f"no degrees >= {d_min} to fit")
    return 1.0 + degs.size / float(np.sum(np.log(degs / (d_min - 0.5))))


# ---------------------------------------------------------------------------
# Column models for table data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericColumnModel:
    """Empirical histogram model of a numeric column."""

    bin_edges: np.ndarray
    bin_probs: np.ndarray

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        bins = rng.choice(len(self.bin_probs), size=count, p=self.bin_probs)
        left = self.bin_edges[bins]
        right = self.bin_edges[bins + 1]
        return left + rng.random(count) * (right - left)


@dataclass(frozen=True)
class CategoricalColumnModel:
    """Empirical frequency model of a categorical/id column."""

    categories: np.ndarray
    probs: np.ndarray

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.categories, size=count, p=self.probs)


def fit_numeric_column(values: np.ndarray, bins: int = 64) -> NumericColumnModel:
    """Quantile-binned histogram: equal-mass bins track skewed columns
    (prices, sizes) far better than equal-width bins."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot fit an empty column")
    edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, bins + 1)))
    if edges.size < 2:
        # Constant column: a single degenerate bin around the value.
        edges = np.array([edges[0], edges[0] + 1e-12])
    counts, edges = np.histogram(values, bins=edges)
    total = counts.sum()
    if total == 0:
        raise ValueError("degenerate histogram")
    return NumericColumnModel(bin_edges=edges, bin_probs=counts / total)


def fit_categorical_column(values: np.ndarray) -> CategoricalColumnModel:
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("cannot fit an empty column")
    categories, counts = np.unique(values, return_counts=True)
    return CategoricalColumnModel(categories=categories, probs=counts / counts.sum())


# ---------------------------------------------------------------------------
# Distribution distances (veracity checks)
# ---------------------------------------------------------------------------

def ks_distance(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup of |ECDF_a - ECDF_b|)."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("KS distance needs non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def total_variation(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    """Total-variation distance between two discrete distributions,
    padding the shorter support with zeros."""
    a = np.asarray(probs_a, dtype=np.float64)
    b = np.asarray(probs_b, dtype=np.float64)
    size = max(a.size, b.size)
    a = np.pad(a, (0, size - a.size))
    b = np.pad(b, (0, size - b.size))
    return 0.5 * float(np.abs(a - b).sum())


def normalized_counts(values: np.ndarray, support: int) -> np.ndarray:
    """Histogram of integer ``values`` over ``0..support-1``, normalized."""
    counts = np.bincount(np.asarray(values, dtype=np.int64), minlength=support)
    total = counts.sum()
    if total == 0:
        return np.zeros(support, dtype=np.float64)
    return counts[:support] / total
