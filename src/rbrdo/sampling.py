"""Seeded random streams, Latin Hypercube sampling and neighborhood samples.

Reproducibility contract: a stream is fully determined by its root seed and
its derivation path, so re-running any pipeline with the same seed yields
bit-identical samples on the same platform/build. A stream draws from
Philox (counter-based, period >= 2**128), keyed exactly as numpy's
``SeedSequence(entropy=seed, spawn_key=path).generate_state(2, np.uint64)``
keys it, which maps distinct (generation, candidate, ...) index paths to
independent streams without collisions.

A Philox stream is just a (key, counter) pair, so below the optimizer a
stream is its key. :meth:`RngStream.keys` hashes the keys of many
substreams in one pass: numpy's seed-sequence hash runs as uint32 array
operations (:func:`_hashed_keys`), its constants advancing with the number
of entropy words alone. One generator then draws every block in turn:
setting its key, a zero counter and an empty buffer switches it to the
next stream's first draw.
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

    def _entropy(self, pad: bool) -> list:
        """The seed sequence's entropy words: the seed's, zero-padded to
        the pool size when a path follows, then each path index's."""
        words = _words(self.seed)
        if pad or self.path:
            words += [0] * (_POOL_SIZE - len(words))
        for i in self.path:
            words += _words(i)
        return words

    @property
    def key(self) -> np.ndarray:
        """The (2,) uint64 Philox key, numpy's ``SeedSequence(entropy=seed,
        spawn_key=path).generate_state(2, np.uint64)``; word 0 alone is
        ``generate_state(1, np.uint64)``, as output words do not depend on
        how many are asked for."""
        words = np.array(self._entropy(False), dtype=np.uint32)[:, None]
        return _hashed_keys(words)[0]

    def keys(self, rows) -> np.ndarray:
        """(len(rows), 2) uint64 keys, row k that of ``substream(rows[k])``,
        hashed in one pass; each index must lie in [0, 2**32)."""
        rows = np.asarray(rows)
        if rows.size and not 0 <= rows.min() <= rows.max() <= _MASK32:
            raise UsageError("substream indices must lie in [0, 2**32)")
        entropy = np.array(self._entropy(True) + [0], dtype=np.uint32)
        entropy = np.repeat(entropy[:, None], rows.size, axis=1)
        entropy[-1] = rows
        return _hashed_keys(entropy)

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        """The stream's generator, built on first use."""
        bitgen = np.random.Philox(0)
        bitgen.state = _start_state(self.key.tolist())
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


def _start_state(key) -> dict:
    """The state ``np.random.Philox(key=key)`` starts in: a zero counter
    and an empty buffer. Built from a seeded ``Philox(0)`` and set to
    this, a generator draws as that one does, without the OS entropy
    an unseeded constructor reads."""
    return {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0),
                                                 "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}


def _unit_draws(keys, count: int, dim: int, scheme: str) -> np.ndarray:
    """(N, count, dim) points in [0, 1), block i drawn from the stream
    keyed ``keys[i]`` ((N, 2) uint64) exactly as its own generator would
    draw them, through one generator switched from key to key; the
    arithmetic then runs once over all blocks."""
    bitgen = np.random.Philox(0)  # keyed per block below
    gen = np.random.Generator(bitgen)
    starts = [_start_state(key) for key in keys.tolist()]
    if scheme == "uniform":
        u = np.empty((len(keys), count, dim))
        for block, start in zip(u, starts):
            bitgen.state = start
            gen.random(out=block)
        return u
    # permutation(count) shuffles arange(count); so does each preset row
    perm = np.empty((len(keys), dim, count), dtype=np.int64)
    perm[...] = np.arange(count)
    jitter = np.empty((len(keys), dim, count))
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
    return _unit_draws(rng.key[None], count, dim, "lhs")[0]


def neighborhood_samples(centers: np.ndarray, noise: np.ndarray, count: int,
                         scheme: str, keys: np.ndarray) -> np.ndarray:
    """(N, count, n) perturbed copies of the N center rows, block i drawn
    from the stream with Philox key ``keys[i]`` (an (N, 2) uint64 array,
    as :meth:`RngStream.keys` gives).

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
    if np.shape(keys) != (len(x), 2):
        raise UsageError("one Philox key is required per center row")
    if np.any((d > 0.0) & (np.abs(x) < _DEGENERATE_CENTER)):
        log.debug("neighborhood degenerates to a point: |center| < %.0e "
                  "on a noisy coordinate", _DEGENERATE_CENTER)
    # LHS draws each coordinate in turn, so the trailing noise-free ones
    # are not drawn; a uniform block fills its rows whole
    noisy = (d > 0.0).nonzero()[0]
    width = (d.size if scheme == "uniform"
             else noisy[-1] + 1 if noisy.size else 0)
    u = _unit_draws(keys, count, width, scheme)
    x = x[:, None, :]
    samples = np.repeat(x, count, axis=1)
    xw = x[..., :width]
    half = d[:width] * xw  # signed half-width; sign-safe: the map is affine
    lo = np.minimum(xw - half, xw + half)
    hi = np.maximum(xw - half, xw + half)
    samples[..., :width] = np.clip(xw + half * (2.0 * u - 1.0), lo, hi)
    samples[..., d == 0.0] = x[..., d == 0.0]
    return samples
