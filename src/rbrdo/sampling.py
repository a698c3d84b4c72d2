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
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

log = logging.getLogger(__name__)

_DEGENERATE_CENTER = 1e-12


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


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Multiplicative noise neighborhood around a center point.

    Sample coordinate s lies in [x_s - delta_s*x_s, x_s + delta_s*x_s];
    coordinates with delta_s = 0 are never perturbed. A zero center makes
    the interval degenerate to the point itself, which is accepted (and
    flagged in logs) rather than widened.
    """

    center: np.ndarray
    noise: np.ndarray
    count: int
    scheme: str = "lhs"

    def __post_init__(self):
        x = np.asarray(self.center, dtype=float)
        d = np.asarray(self.noise, dtype=float)
        if x.ndim != 1 or x.shape != d.shape:
            raise UsageError("center and noise must be equal-length vectors")
        if np.any(d < 0.0):
            raise UsageError("noise levels must be nonnegative")
        if self.count < 1:
            raise UsageError("sample count must be >= 1")
        if self.scheme not in ("lhs", "uniform"):
            raise UsageError(f"unknown sampling scheme {self.scheme!r}")
        object.__setattr__(self, "center", x)
        object.__setattr__(self, "noise", d)


def latin_hypercube(count: int, dim: int, rng: RngStream) -> np.ndarray:
    """Stratified count x dim sample in [0, 1).

    Each column holds exactly one point per stratum [k/count, (k+1)/count),
    with an independent random stratum permutation per column and uniform
    jitter within each stratum.
    """
    if count < 1 or dim < 1:
        raise UsageError("latin_hypercube needs count >= 1 and dim >= 1")
    out = np.empty((count, dim))
    for j in range(dim):
        perm = rng.gen.permutation(count)
        jitter = rng.gen.random(count)
        out[:, j] = (perm + jitter) / count
    return out


def neighborhood_samples(spec: NeighborhoodSpec, rng: RngStream) -> np.ndarray:
    """count x dim matrix of perturbed copies of the center point."""
    x, d, m = spec.center, spec.noise, spec.count
    if np.any((d > 0.0) & (np.abs(x) < _DEGENERATE_CENTER)):
        log.debug("neighborhood degenerates to a point: |center| < %.0e "
                  "on a noisy coordinate", _DEGENERATE_CENTER)
    if spec.scheme == "lhs":
        u = latin_hypercube(m, x.size, rng)
    else:
        u = rng.gen.random((m, x.size))
    half = d * x  # signed half-width; sign-safe because the map is affine
    samples = x + half * (2.0 * u - 1.0)
    lo = np.minimum(x - half, x + half)
    hi = np.maximum(x - half, x + half)
    samples = np.clip(samples, lo, hi)
    samples[:, d == 0.0] = x[d == 0.0]
    return samples
