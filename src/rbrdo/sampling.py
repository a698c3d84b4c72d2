"""Seeded random streams, Latin Hypercube sampling and neighborhood samples.

Reproducibility contract: a stream is fully determined by its root seed and
its derivation path, so re-running any pipeline with the same seed yields
bit-identical samples on the same platform/build. A stream draws from
Philox (counter-based, period >= 2**128), keyed exactly as numpy's
``SeedSequence(entropy=seed, spawn_key=path).generate_state(2, np.uint64)``
keys it, which maps distinct (generation, candidate, ...) index paths to
independent streams without collisions.

The keys of a whole population come from one array pass
(:func:`_philox_keys`): numpy's seed-sequence hash runs as uint32 array
operations over all streams whose entropy words are equally many, since
its hash constants advance with the number of words alone. Because a
Philox stream is just a (key, counter) pair, one generator then draws
every block in turn: setting its key, a zero counter and an empty buffer
switches it to the next stream's first draw.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .errors import UsageError

log = logging.getLogger(__name__)

_DEGENERATE_CENTER = 1e-12

SCHEMES = ("lhs", "uniform")

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class RngStream:
    """A seeded, forkable random stream."""

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        if min((self.seed,) + self.path) < 0:
            raise UsageError(f"stream seed and path indices must be "
                             f"nonnegative: seed {self.seed}, "
                             f"path {self.path}")

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        """The stream's generator, built on first use: most evaluators
        never draw from the per-candidate streams they are handed."""
        bitgen = np.random.Philox(0)
        bitgen.state = _start_state(_philox_keys([self])[0].tolist())
        return np.random.Generator(bitgen)

    def substream(self, *indices: int) -> "RngStream":
        """Derive an independent stream for (generation, candidate, ...)."""
        return RngStream(self.seed, self.path + tuple(indices))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def _words(n: int) -> list:
    """The uint32 words of a nonnegative integer, least significant first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _entropy(stream: RngStream) -> list:
    """The seed sequence's assembled entropy: the seed's words, padded with
    zeros to the pool size when there is a path, then each index's words."""
    words = _words(stream.seed)
    if stream.path:
        words += [0] * (_POOL_SIZE - len(words))
        for i in stream.path:
            words += _words(i)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32 column: init and its next count multiples."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashed_keys(entropy: np.ndarray) -> np.ndarray:
    """(k, 2) uint64 keys from the (L, k) uint32 entropy words of k streams:
    numpy's pool mixing, then its output hash for two uint64 words.

    Hash call t xors constant t and multiplies by constant t + 1, so the
    calls that update different pool words at one step run as one array
    operation."""
    width = len(entropy)
    a = _hash_constants(_INIT_A, _MULT_A,
                        _POOL_SIZE * max(width, _POOL_SIZE))
    calls = 0

    def hashmix(value, count):
        nonlocal calls
        value = value ^ a[calls:calls + count]
        value *= a[calls + 1:calls + count + 1]
        calls += count
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> 16)

    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:width] = entropy[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for word in entropy[_POOL_SIZE:]:
        pool = mix(pool, hashmix(word, _POOL_SIZE))
    b = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)
    state = (pool ^ b[:-1]) * b[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    # little-endian pairs of uint32 words make the uint64 words
    return (state[0::2] | state[1::2] << 32).T


def _philox_keys(streams) -> np.ndarray:
    """(N, 2) uint64 Philox keys, row i the key numpy's
    ``SeedSequence(entropy=seed, spawn_key=path).generate_state(2,
    np.uint64)`` gives ``streams[i]``; word 0 alone is
    ``generate_state(1, np.uint64)``, as output words do not depend on how
    many are asked for. Streams hash together when their entropy holds
    equally many words."""
    by_width: dict[int, tuple[list, list]] = {}
    for k, stream in enumerate(streams):
        words = _entropy(stream)
        rows, entropy = by_width.setdefault(len(words), ([], []))
        rows.append(k)
        entropy.append(words)
    keys = np.empty((len(streams), 2), dtype=np.uint64)
    for rows, entropy in by_width.values():
        keys[rows] = _hashed_keys(np.array(entropy, dtype=np.uint32).T)
    return keys


def _start_state(key) -> dict:
    """The state ``np.random.Philox(key=key)`` starts in: a zero counter
    and an empty buffer. Built from a seeded ``Philox(0)`` and set to
    this, a generator draws as that one does, without the OS entropy
    an unseeded constructor reads."""
    return {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0),
                                                 "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}


def _unit_draws(streams, count: int, dim: int, scheme: str) -> np.ndarray:
    """(len(streams), count, dim) points in [0, 1), block i drawn from
    ``streams[i]`` exactly as its own generator would draw them, through
    one generator switched from stream to stream; the arithmetic then
    runs once over all blocks."""
    bitgen = np.random.Philox(0)  # keyed per block below
    gen = np.random.Generator(bitgen)
    starts = [_start_state(key) for key in _philox_keys(streams).tolist()]
    if scheme == "uniform":
        u = np.empty((len(streams), count, dim))
        for block, start in zip(u, starts):
            bitgen.state = start
            gen.random(out=block)
        return u
    # permutation(count) shuffles arange(count); so does each preset row
    perm = np.empty((len(streams), dim, count), dtype=np.int64)
    perm[...] = np.arange(count)
    jitter = np.empty((len(streams), dim, count))
    for i, start in enumerate(starts):
        bitgen.state = start
        for j in range(dim):
            gen.shuffle(perm[i, j])
            gen.random(out=jitter[i, j])
    return ((perm + jitter) / count).transpose(0, 2, 1)


def latin_hypercube(count: int, dim: int, rng: RngStream) -> np.ndarray:
    """Stratified count x dim sample in [0, 1).

    Each column holds exactly one point per stratum [k/count, (k+1)/count),
    with an independent random stratum permutation per column and uniform
    jitter within each stratum.
    """
    if count < 1 or dim < 1:
        raise UsageError("latin_hypercube needs count >= 1 and dim >= 1")
    return _unit_draws([rng], count, dim, "lhs")[0]


def neighborhood_samples(centers: np.ndarray, noise: np.ndarray, count: int,
                         scheme: str, streams) -> np.ndarray:
    """(N, count, n) perturbed copies of the N center rows, block i drawn
    from ``streams[i]``.

    Multiplicative noise: coordinate s of a sample of center x lies in
    [x_s - noise_s*x_s, x_s + noise_s*x_s]; coordinates with noise 0 are
    never perturbed. A zero center makes the interval degenerate to the
    point itself, which is accepted (and logged) rather than widened.
    """
    x = np.asarray(centers, dtype=float)
    d = np.asarray(noise, dtype=float)
    if x.ndim != 2 or d.ndim != 1 or x.shape[1] != d.size:
        raise UsageError("centers must be rows as long as the noise vector")
    if np.any(d < 0.0):
        raise UsageError("noise levels must be nonnegative")
    if count < 1:
        raise UsageError("sample count must be >= 1")
    if scheme not in SCHEMES:
        raise UsageError(f"unknown sampling scheme {scheme!r}")
    if len(streams) != len(x):
        raise UsageError("one rng stream is required per center row")
    if np.any((d > 0.0) & (np.abs(x) < _DEGENERATE_CENTER)):
        log.debug("neighborhood degenerates to a point: |center| < %.0e "
                  "on a noisy coordinate", _DEGENERATE_CENTER)
    # LHS draws each coordinate in turn, so the trailing noise-free ones
    # are not drawn; a uniform block fills its rows whole
    noisy = (d > 0.0).nonzero()[0]
    width = (d.size if scheme == "uniform"
             else noisy[-1] + 1 if noisy.size else 0)
    u = _unit_draws(streams, count, width, scheme)
    x = x[:, None, :]
    samples = np.repeat(x, count, axis=1)
    xw = x[..., :width]
    half = d[:width] * xw  # signed half-width; sign-safe: the map is affine
    lo = np.minimum(xw - half, xw + half)
    hi = np.maximum(xw - half, xw + half)
    samples[..., :width] = np.clip(xw + half * (2.0 * u - 1.0), lo, hi)
    samples[..., d == 0.0] = x[..., d == 0.0]
    return samples
