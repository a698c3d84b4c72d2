"""Robustness strategies: effective mean, Type II cut and penalty-based.

All three quantify how sensitive an objective vector is to multiplicative
noise on the decision variables, using M samples drawn in the noise
neighborhood of the candidate:

* effective mean replaces f by its neighborhood average (type I robustness);
* the Type II rule keeps f but cuts candidates whose normalized distance
  between the averaged and nominal objective vectors exceeds eta;
* the penalty approach worsens each objective by its mean normalized
  absolute deviation over the samples.

This module holds the strategy spec and the aggregators only. Each
strategy's aggregation is one function over (..., M, m) stacks of sampled
objective values, one candidate per leading index
(:func:`penalty_objectives`, :func:`worst_sample`, :func:`type2_ratio`;
the effective mean is the sample-axis mean). Division hazards come back as
a mask. Sampling and scoring a candidate is the population evaluator's job
(:meth:`rbrdo.formulation.RbrdoEvaluator.evaluate_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .sampling import SCHEMES

_DENOM_FLOOR = 1e-12

STRATEGIES = ("effective_mean", "type2", "penalty")


def noise_levels(values) -> np.ndarray:
    """``values`` as a float array; each must be finite and nonnegative."""
    levels = np.asarray(values, dtype=float) + 0.0  # -0.0 becomes +0.0
    if not np.all(np.isfinite(levels) & (levels >= 0.0)):
        raise UsageError("noise levels must be finite and nonnegative")
    return levels


@dataclass(frozen=True)
class RobustnessSpec:
    """Every noise setting of an evaluation.

    ``delta`` holds one relative half-width per decision coordinate
    (coordinates with 0 are never perturbed); zero noise, the empty default
    included, is the one noise-free spelling. ``eta`` is required exactly
    for the Type II strategy. ``worst_case`` makes the worst sample, not
    the sample mean, the Type II reference; it is refused with any other
    strategy. ``mpp_nominal`` checks the constraints at each nominal
    design instead of at every sample; it has no effect at zero noise.
    """

    strategy: str = "effective_mean"
    delta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    samples: int = 50
    eta: float | None = None
    scheme: str = "lhs"
    worst_case: bool = False
    mpp_nominal: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise UsageError(f"unknown robustness strategy {self.strategy!r}")
        if self.scheme not in SCHEMES:
            raise UsageError(f"unknown sampling scheme {self.scheme!r}")
        object.__setattr__(self, "delta", noise_levels(self.delta))
        if self.samples < 1:
            raise UsageError("sample count must be >= 1")
        if self.strategy == "type2" and self.eta is None:
            raise UsageError("the Type II strategy requires eta")
        if self.worst_case and self.strategy != "type2":
            raise UsageError("worst_case applies to the Type II strategy "
                             "only")
        if self.eta is not None and not 0.0 < self.eta < np.inf:
            raise UsageError("eta must be positive and finite")


def penalty_objectives(vals, f_nominal, signs):
    """Penalty strategy over the (..., M, m) sample matrices ``vals``.

    f(x) worsened by P_r = mean_j |f_r(xi_j) - f_r(x)| / |f_r(x)|, with the
    sense ``signs`` of :func:`~rbrdo.core.sense_signs`. Returns (objectives,
    hazard): hazard marks the candidates with some |f_r(x)| ~ 0.
    """
    f_nominal = np.asarray(f_nominal, dtype=float)
    absf = np.abs(f_nominal)
    with np.errstate(divide="ignore", invalid="ignore"):
        pen = np.abs(vals - f_nominal[..., None, :]).mean(axis=-2) / absf
    return f_nominal + signs * pen, np.any(absf < _DENOM_FLOOR, axis=-1)


def worst_sample(vals, f_nominal, signs) -> np.ndarray:
    """Type II worst-case reference: the row of each (..., M, m) ``vals``
    whose objectives are worst sense-wise, summed after normalization by
    |f(x)|."""
    f_nominal = np.asarray(f_nominal, dtype=float)[..., None, :]
    scale = np.maximum(np.abs(f_nominal), _DENOM_FLOOR)
    badness = ((vals - f_nominal) * signs / scale).sum(axis=-1)
    worst = np.argmax(badness, axis=-1)[..., None, None]
    return np.take_along_axis(vals, worst, axis=-2)[..., 0, :]


def type2_ratio(f_val, f_ref):
    """Normalized distance ||f_ref - f|| / ||f|| of the Type II cut over
    the last axis. Returns (ratio, hazard): hazard marks ||f|| ~ 0."""
    f_val = np.atleast_1d(np.asarray(f_val, dtype=float))
    f_ref = np.atleast_1d(np.asarray(f_ref, dtype=float))
    denom = np.linalg.norm(f_val, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.linalg.norm(f_ref - f_val, axis=-1) / denom
    return ratio, denom < _DENOM_FLOOR
