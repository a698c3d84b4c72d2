import numpy as np
import pytest

from rbrdo import (NeighborhoodSpec, RngStream, UsageError, latin_hypercube,
                   neighborhood_samples)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42).gen.random(100)
        b = RngStream(42).gen.random(100)
        assert np.array_equal(a, b)

    def test_substreams_independent_and_reproducible(self):
        s = RngStream(1)
        a = s.substream(3, 7).gen.random(10)
        b = RngStream(1).substream(3, 7).gen.random(10)
        c = RngStream(1).substream(3, 8).gen.random(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_generator_built_on_first_use(self):
        s = RngStream(42).substream(1, 3, 7)
        assert "gen" not in vars(s)
        draws = s.gen.random(5)
        assert s.gen is s.gen
        ref = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=42, spawn_key=(1, 3, 7))))
        assert np.array_equal(draws, ref.random(5))


class TestLatinHypercube:
    def test_one_point_per_quartile(self):
        pts = np.sort(latin_hypercube(4, 1, RngStream(0))[:, 0])
        for k, p in enumerate(pts):
            assert k / 4 <= p < (k + 1) / 4

    def test_single_sample(self):
        row = latin_hypercube(1, 3, RngStream(1))
        assert row.shape == (1, 3)
        assert np.all((row >= 0.0) & (row < 1.0))

    def test_column_means_near_half(self):
        # 3-sigma bound for the mean of 50 uniforms: 0.5 +/- 3/sqrt(12*50)
        for seed in range(20):
            means = latin_hypercube(50, 2, RngStream(seed)).mean(axis=0)
            assert np.all(np.abs(means - 0.5) <= 3.0 / np.sqrt(12 * 50))

    def test_stratification_multiset(self):
        m = 37
        samples = latin_hypercube(m, 4, RngStream(5))
        for j in range(4):
            strata = np.floor(samples[:, j] * m).astype(int)
            assert sorted(strata) == list(range(m))

    def test_degenerate_counts(self):
        with pytest.raises(UsageError):
            latin_hypercube(0, 2, RngStream(0))
        with pytest.raises(UsageError):
            latin_hypercube(2, 0, RngStream(0))


class TestNeighborhoodSamples:
    def test_zero_noise_returns_center(self):
        spec = NeighborhoodSpec(center=np.array([1.5, -2.0]),
                                noise=np.zeros(2), count=8)
        samples = neighborhood_samples(spec, RngStream(0))
        assert np.all(samples == np.array([1.5, -2.0]))

    def test_interval_containment(self):
        spec = NeighborhoodSpec(center=np.array([2.0]), noise=np.array([0.1]),
                                count=200)
        samples = neighborhood_samples(spec, RngStream(3))
        assert np.all((samples >= 1.8) & (samples <= 2.2))

    def test_mixed_noise_coordinates(self):
        spec = NeighborhoodSpec(center=np.array([1.0, 1.0]),
                                noise=np.array([0.05, 0.0]), count=50)
        samples = neighborhood_samples(spec, RngStream(7))
        assert np.all(samples[:, 1] == 1.0)
        assert np.all((samples[:, 0] >= 0.95) & (samples[:, 0] <= 1.05))

    def test_negative_center_contained(self):
        spec = NeighborhoodSpec(center=np.array([-3.0]), noise=np.array([0.2]),
                                count=100)
        samples = neighborhood_samples(spec, RngStream(11))
        assert np.all((samples >= -3.6) & (samples <= -2.4))

    def test_reproducible(self):
        spec = NeighborhoodSpec(center=np.ones(3), noise=np.full(3, 0.1),
                                count=20)
        a = neighborhood_samples(spec, RngStream(9))
        b = neighborhood_samples(spec, RngStream(9))
        assert np.array_equal(a, b)

    def test_uniform_scheme(self):
        spec = NeighborhoodSpec(center=np.array([2.0]), noise=np.array([0.1]),
                                count=64, scheme="uniform")
        samples = neighborhood_samples(spec, RngStream(1))
        assert np.all((samples >= 1.8) & (samples <= 2.2))

    def test_validation(self):
        with pytest.raises(UsageError):
            NeighborhoodSpec(center=np.ones(2), noise=np.array([0.1, -0.1]),
                             count=5)
        with pytest.raises(UsageError):
            NeighborhoodSpec(center=np.ones(2), noise=np.zeros(2), count=0)
        with pytest.raises(UsageError):
            NeighborhoodSpec(center=np.ones(2), noise=np.zeros(2), count=1,
                             scheme="sobol")
