import numpy as np
import pytest

from rbrdo import RngStream, UsageError, latin_hypercube, neighborhood_samples
from rbrdo.formulation import _level_seed
from rbrdo.problems import catalyst
from rbrdo.sampling import _philox_keys, _unit_draws


def numpy_key(seed, path=()):
    return np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(
        2, np.uint64)


def numpy_gen(stream):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=stream.seed, spawn_key=stream.path)))


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

    @pytest.mark.parametrize("seed, path", [(-1, ()), (0, (-1,)),
                                            (3, (1, 2, -5))])
    def test_negative_seed_or_index_refused_when_built(self, seed, path):
        with pytest.raises(UsageError, match="nonnegative"):
            RngStream(seed, path)
        with pytest.raises(UsageError):
            RngStream(1).substream(2, -1)

    @pytest.mark.parametrize("path", [(2**32,), (2**64, 1), (7, 2**64 + 5)])
    def test_large_path_indices_draw_as_numpy(self, path):
        s = RngStream(4, path)
        assert np.array_equal(s.gen.random(9), numpy_gen(s).random(9))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
         _level_seed(1, 0.05)]  # a 64-bit seed, as a sweep level gets
ENTRIES = [0, 2**32 - 1, 2**32, 2**64]
PATHS = [(), (0,), (2**32 - 1,), (2**32,), (2**64,), (0, 2**64),
         (2**32, 2**32 - 1, 0), (2**64, 0, 2**32, 2**32 - 1),
         (1, 0, 49), (2, 500)]


class TestPhiloxKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_numpy_seed_sequence(self, seed):
        streams = [RngStream(seed, path) for path in PATHS]
        want = np.stack([numpy_key(seed, path) for path in PATHS])
        keys = _philox_keys(streams)
        assert keys.dtype == np.uint64 and keys.shape == (len(PATHS), 2)
        assert np.array_equal(keys, want)

    def test_mixed_seeds_and_lengths_in_one_call(self):
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(60):
            length = int(rng.integers(0, 5))
            cases.append((SEEDS[rng.integers(len(SEEDS))],
                          tuple(ENTRIES[k] for k in
                                rng.integers(len(ENTRIES), size=length))))
        cases += [(seed, (1, 0, i)) for seed in range(24) for i in range(3)]
        keys = _philox_keys([RngStream(seed, path) for seed, path in cases])
        want = np.stack([numpy_key(seed, path) for seed, path in cases])
        assert np.array_equal(keys, want)

    def test_first_word_is_the_one_word_state(self):
        # output word i does not depend on how many words are asked for
        for seed in SEEDS:
            for path in PATHS:
                ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
                assert (ss.generate_state(1, np.uint64)[0]
                        == ss.generate_state(2, np.uint64)[0])
        key = int(np.float64(0.05).view(np.uint64))
        assert _level_seed(1, 0.05) == int(np.random.SeedSequence(
            entropy=1, spawn_key=(key,)).generate_state(1, np.uint64)[0])


def reference_draws(streams, count, dim, scheme):
    """One generator per stream, drawing permutation/random per coordinate."""
    blocks = []
    for stream in streams:
        gen = numpy_gen(stream)
        if scheme == "uniform":
            blocks.append(gen.random((count, dim)))
            continue
        perm = np.empty((dim, count), dtype=np.int64)
        jitter = np.empty((dim, count))
        for j in range(dim):
            perm[j] = gen.permutation(count)
            jitter[j] = gen.random(count)
        blocks.append(((perm + jitter) / count).T)
    return np.stack(blocks)


class TestUnitDraws:
    @pytest.mark.parametrize("scheme", ["lhs", "uniform"])
    @pytest.mark.parametrize("count", [1, 4, 50, 129])
    def test_blocks_equal_per_stream_generators(self, scheme, count):
        streams = [RngStream(seed, (1, 3, i)) for i, seed in
                   enumerate([0, 2**32, 7, 7, 2**64 - 1])] + [
            RngStream(9), RngStream(9, (2**64,))]
        for dim in range(1, 6):
            got = _unit_draws(streams, count, dim, scheme)
            want = reference_draws(streams, count, dim, scheme)
            assert got.shape == (len(streams), count, dim)
            assert got.tobytes() == want.tobytes()


    def test_lhs_columns_do_not_depend_on_the_width(self):
        # LHS draws one coordinate after another: a narrower draw is the
        # leading columns of a wider one
        streams = [RngStream(4, (2, i)) for i in range(6)]
        for count in (1, 50):
            narrow = _unit_draws(streams, count, 3, "lhs")
            wide = _unit_draws(streams, count, 5, "lhs")
            assert (narrow.tobytes()
                    == np.ascontiguousarray(wide[..., :3]).tobytes())


def test_streams_read_no_os_entropy(monkeypatch):
    # an unseeded numpy bit generator reads OS entropy it never uses;
    # keyed streams start from a seeded one
    import random
    np.random.Generator  # importing numpy.random seeds its legacy state
    calls = []
    read = random._urandom

    def spy(n):
        calls.append(n)
        return read(n)
    monkeypatch.setattr(random, "_urandom", spy)
    for scheme in ("lhs", "uniform"):
        neighborhood_samples(np.ones((3, 2)), np.full(2, 0.1), 4, scheme,
                             [RngStream(1, (0, i)) for i in range(3)])
    RngStream(1).gen.random()
    assert calls == []


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


    @pytest.mark.parametrize("scheme", ["lhs", "uniform"])
    def test_catalyst_samples_match_full_width_draws(self, scheme):
        # catalyst's two trailing design coordinates are noise-free: LHS
        # no longer draws them, and the samples are those the full-width
        # draw gave
        prob = catalyst.rbrdo()
        rng = np.random.default_rng(6)
        bounds = prob.det_bounds
        centers = rng.uniform(bounds.lower, bounds.upper, size=(7, 5))
        noise = np.where(prob.noise_mask, 0.05, 0.0)
        streams = [RngStream(2, (0, i)) for i in range(7)]
        got = neighborhood_samples(centers, noise, 50, scheme, streams)
        u = _unit_draws(streams, 50, 5, scheme)
        x = centers[:, None, :]
        half = noise * x
        want = np.clip(x + half * (2.0 * u - 1.0),
                       np.minimum(x - half, x + half),
                       np.maximum(x - half, x + half))
        want[..., noise == 0.0] = x[..., noise == 0.0]
        assert got.tobytes() == want.tobytes()


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
