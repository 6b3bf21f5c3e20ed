"""Unit tests for the statistical model-fitting machinery."""

import numpy as np
import pytest

from repro.datagen.models import (
    ZipfModel,
    fit_categorical_column,
    fit_degree_powerlaw,
    fit_numeric_column,
    fit_zipf,
    ks_distance,
    normalized_counts,
    total_variation,
)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        model = ZipfModel(alpha=1.1, vocab_size=1000)
        assert model.probabilities().sum() == pytest.approx(1.0)

    def test_probabilities_decrease_with_rank(self):
        probs = ZipfModel(alpha=1.0, vocab_size=100).probabilities()
        assert np.all(np.diff(probs) <= 0)

    def test_alpha_zero_is_uniform(self):
        probs = ZipfModel(alpha=0.0, vocab_size=10).probabilities()
        assert np.allclose(probs, 0.1)

    def test_sample_range_and_skew(self):
        model = ZipfModel(alpha=1.2, vocab_size=500)
        rng = np.random.default_rng(0)
        sample = model.sample(20000, rng)
        assert sample.min() >= 0
        assert sample.max() < 500
        counts = np.bincount(sample, minlength=500)
        assert counts[0] > counts[100] > 0

    def test_the_largest_draw_stays_inside_the_vocabulary(self):
        """A cumulative sum of the probabilities may end below one (it
        does for this model); the draw above it is the last word, not
        an id one past the vocabulary."""
        class TopOfRange:
            def random(self, count):
                return np.full(count, np.nextafter(1.0, 0.0))

        model = ZipfModel(alpha=1.1292830167218264, vocab_size=40_000)
        assert np.cumsum(model.probabilities())[-1] < np.nextafter(1.0, 0.0)
        ids = model.sample(5, TopOfRange())
        assert ids.dtype == np.int64
        assert ids.tolist() == [model.vocab_size - 1] * 5

    def test_sample_zero(self):
        model = ZipfModel(alpha=1.0, vocab_size=10)
        assert model.sample(0, np.random.default_rng(0)).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfModel(alpha=1.0, vocab_size=0)
        with pytest.raises(ValueError):
            ZipfModel(alpha=-1.0, vocab_size=10)
        with pytest.raises(ValueError):
            ZipfModel(alpha=1.0, vocab_size=5).sample(-1, np.random.default_rng(0))

    def test_fit_recovers_alpha(self):
        """Fitting frequencies sampled from a Zipf recovers its exponent."""
        true = ZipfModel(alpha=1.3, vocab_size=2000)
        rng = np.random.default_rng(1)
        sample = true.sample(500_000, rng)
        fitted = fit_zipf(np.bincount(sample, minlength=2000))
        assert fitted.alpha == pytest.approx(1.3, abs=0.2)

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_zipf(np.zeros(10))

    def test_fit_single_item(self):
        model = fit_zipf(np.array([42.0]))
        assert model.vocab_size == 1


class TestPowerLaw:
    def test_fit_orders_tail_heaviness(self):
        """A heavier tail (smaller true gamma) yields a smaller estimate."""
        rng = np.random.default_rng(2)
        u = rng.random(50000)
        heavy = np.floor(2 * (1 - u) ** (-1 / 1.2)).astype(int)
        light = np.floor(2 * (1 - u) ** (-1 / 2.5)).astype(int)
        assert fit_degree_powerlaw(heavy) < fit_degree_powerlaw(light)

    def test_fit_recovers_exponent_discrete(self):
        """Floored (integer) degrees bias the continuous MLE only mildly."""
        rng = np.random.default_rng(2)
        u = rng.random(50000)
        degrees = np.floor(2 * (1 - u) ** (-1 / 1.5)).astype(int)
        gamma = fit_degree_powerlaw(degrees, d_min=2)
        assert gamma == pytest.approx(2.5, abs=0.4)

    def test_fit_rejects_all_small(self):
        with pytest.raises(ValueError):
            fit_degree_powerlaw(np.array([0, 1, 1]), d_min=2)


class TestColumnModels:
    def test_numeric_roundtrip_preserves_distribution(self):
        rng = np.random.default_rng(3)
        seed = rng.lognormal(3.0, 1.0, 20000)
        model = fit_numeric_column(seed)
        synth = model.sample(20000, rng)
        assert ks_distance(seed, synth) < 0.05

    def test_numeric_constant_column(self):
        model = fit_numeric_column(np.full(100, 7.0))
        sample = model.sample(10, np.random.default_rng(0))
        assert np.allclose(sample, 7.0, atol=1e-9)

    def test_numeric_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_numeric_column(np.array([]))

    def test_categorical_roundtrip(self):
        rng = np.random.default_rng(4)
        seed = rng.choice([10, 20, 30], size=10000, p=[0.7, 0.2, 0.1])
        model = fit_categorical_column(seed)
        synth = model.sample(10000, rng)
        seed_probs = np.bincount(seed, minlength=31)[[10, 20, 30]] / 10000
        synth_probs = np.bincount(synth, minlength=31)[[10, 20, 30]] / 10000
        assert total_variation(seed_probs, synth_probs) < 0.03

    def test_categorical_only_seen_values(self):
        model = fit_categorical_column(np.array([1, 1, 5]))
        sample = model.sample(100, np.random.default_rng(0))
        assert set(np.unique(sample)) <= {1, 5}


class TestDistances:
    def test_ks_identical_is_zero(self):
        data = np.arange(100.0)
        assert ks_distance(data, data) == 0.0

    def test_ks_disjoint_is_one(self):
        assert ks_distance(np.zeros(50), np.ones(50)) == 1.0

    def test_ks_requires_data(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), np.array([1.0]))

    def test_total_variation_bounds(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_total_variation_pads_support(self):
        assert total_variation(np.array([1.0]), np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_normalized_counts(self):
        counts = normalized_counts(np.array([0, 0, 1, 2]), support=4)
        assert counts.tolist() == [0.5, 0.25, 0.25, 0.0]

    def test_normalized_counts_empty(self):
        assert normalized_counts(np.array([], dtype=np.int64), 3).tolist() == [0, 0, 0]
