import numpy as np
import pytest

from rbrdo import RngStream, UsageError, latin_hypercube, neighborhood_samples


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


def one_center(center, noise, count, rng, scheme="lhs"):
    """The (count, n) samples of a single center row."""
    return neighborhood_samples(np.array([center], dtype=float),
                                np.array(noise, dtype=float), count, scheme,
                                [rng])[0]


class TestNeighborhoodSamples:
    def test_zero_noise_returns_center(self):
        samples = one_center([1.5, -2.0], np.zeros(2), 8, RngStream(0))
        assert np.all(samples == np.array([1.5, -2.0]))

    def test_interval_containment(self):
        samples = one_center([2.0], [0.1], 200, RngStream(3))
        assert np.all((samples >= 1.8) & (samples <= 2.2))

    def test_mixed_noise_coordinates(self):
        samples = one_center([1.0, 1.0], [0.05, 0.0], 50, RngStream(7))
        assert np.all(samples[:, 1] == 1.0)
        assert np.all((samples[:, 0] >= 0.95) & (samples[:, 0] <= 1.05))

    def test_negative_center_contained(self):
        samples = one_center([-3.0], [0.2], 100, RngStream(11))
        assert np.all((samples >= -3.6) & (samples <= -2.4))

    def test_reproducible(self):
        a = one_center(np.ones(3), np.full(3, 0.1), 20, RngStream(9))
        b = one_center(np.ones(3), np.full(3, 0.1), 20, RngStream(9))
        assert np.array_equal(a, b)

    def test_uniform_scheme(self):
        samples = one_center([2.0], [0.1], 64, RngStream(1), "uniform")
        assert np.all((samples >= 1.8) & (samples <= 2.2))

    def test_validation(self):
        for centers, noise, count, scheme in [
                (np.ones((1, 2)), [0.1, -0.1], 5, "lhs"),   # negative noise
                (np.ones((1, 2)), np.zeros(2), 0, "lhs"),   # no samples
                (np.ones((1, 2)), np.zeros(2), 1, "sobol"),
                (np.ones(2), np.zeros(2), 1, "lhs"),        # not rows
                (np.ones((1, 3)), np.zeros(2), 1, "lhs")]:  # lengths differ
            with pytest.raises(UsageError):
                neighborhood_samples(centers, np.array(noise), count, scheme,
                                     [RngStream(0)])


class TestPopulationSamples:
    @pytest.mark.parametrize("scheme", ["lhs", "uniform"])
    def test_rows_equal_single_center_calls(self, scheme):
        rng = np.random.default_rng(2)
        centers = rng.uniform(-3.0, 3.0, size=(9, 4))
        centers[4, 0] = 0.0  # degenerate on a noisy coordinate
        noise = np.array([0.1, 0.0, 0.05, 0.2])  # coordinate 1 never moves
        streams = [RngStream(3).substream(i) for i in range(9)]
        got = neighborhood_samples(centers, noise, 7, scheme, streams)
        want = np.stack([
            one_center(c, noise, 7, RngStream(3).substream(i), scheme)
            for i, c in enumerate(centers)])
        assert got.shape == (9, 7, 4)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[:, :, 1] == centers[:, None, 1])
        assert np.all(got[4, :, 0] == 0.0)

    def test_one_stream_per_row(self):
        with pytest.raises(UsageError):
            neighborhood_samples(np.ones((3, 2)), np.full(2, 0.1), 4, "lhs",
                                 [RngStream(0), RngStream(1)])
