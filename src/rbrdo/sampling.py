"""Seeded random streams, Latin Hypercube sampling and neighborhood samples.

Reproducibility contract: a stream is fully determined by its root seed and
its derivation path, so re-running any pipeline with the same seed yields
bit-identical samples on the same platform/build. Substreams are derived
with ``numpy.random.SeedSequence(entropy=seed, spawn_key=path)``, which maps
distinct (generation, candidate, ...) index paths to independent streams
without collisions. The underlying generator is Philox (counter-based,
period >= 2**128).
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .errors import UsageError

log = logging.getLogger(__name__)

_DEGENERATE_CENTER = 1e-12

SCHEMES = ("lhs", "uniform")


class RngStream:
    """A seeded, forkable random stream."""

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        """The stream's generator, built on first use: most evaluators
        never draw from the per-candidate streams they are handed."""
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=self.seed,
                                                    spawn_key=self.path)))

    def substream(self, *indices: int) -> "RngStream":
        """Derive an independent stream for (generation, candidate, ...)."""
        return RngStream(self.seed, self.path + tuple(indices))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def _unit_draws(streams, count: int, dim: int, scheme: str) -> np.ndarray:
    """(len(streams), count, dim) points in [0, 1), block i drawn from
    ``streams[i]`` exactly as a single block would draw them; the
    arithmetic then runs once over all blocks."""
    if scheme == "uniform":
        return np.stack([rng.gen.random((count, dim)) for rng in streams])
    perm = np.empty((len(streams), dim, count), dtype=np.int64)
    jitter = np.empty((len(streams), dim, count))
    for i, rng in enumerate(streams):
        for j in range(dim):
            perm[i, j] = rng.gen.permutation(count)
            jitter[i, j] = rng.gen.random(count)
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
    u = _unit_draws(streams, count, d.size, scheme)
    x = x[:, None, :]
    half = d * x  # signed half-width; sign-safe because the map is affine
    samples = x + half * (2.0 * u - 1.0)
    lo = np.minimum(x - half, x + half)
    hi = np.maximum(x - half, x + half)
    samples = np.clip(samples, lo, hi)
    samples[..., d == 0.0] = x[..., d == 0.0]
    return samples
