"""Robustness strategies: effective mean, Type II cut and penalty-based.

All three quantify how sensitive an objective vector is to multiplicative
noise on the decision variables, using M samples drawn in the noise
neighborhood of the candidate:

* effective mean replaces f by its neighborhood average (type I robustness);
* the Type II rule keeps f but cuts candidates whose normalized distance
  between the averaged and nominal objective vectors exceeds eta;
* the penalty approach worsens each objective by its mean normalized
  absolute deviation over the samples.

Each strategy's aggregation is one function over an (M, m) matrix of
sampled objective values (:func:`penalty_objectives`, :func:`worst_sample`,
:func:`type2_ratio`; the effective mean is the column mean). The
formulation's batched evaluator and the single-point helpers below both
call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import sense_signs
from .errors import DivisionHazardError, UsageError
from .sampling import NeighborhoodSpec, RngStream, neighborhood_samples

_DENOM_FLOOR = 1e-12

STRATEGIES = ("none", "effective_mean", "type2", "penalty")


@dataclass(frozen=True)
class RobustnessSpec:
    """Which strategy to apply and with what noise level.

    ``delta`` holds one relative half-width per decision coordinate
    (coordinates with 0 are never perturbed). ``eta`` is required exactly
    for the Type II strategy. ``worst_case`` switches the Type II
    aggregator from the sample mean to the worst sample.
    """

    strategy: str = "none"
    delta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    samples: int = 50
    eta: float | None = None
    scheme: str = "lhs"
    worst_case: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise UsageError(f"unknown robustness strategy {self.strategy!r}")
        d = np.asarray(self.delta, dtype=float)
        if np.any(d < 0.0):
            raise UsageError("noise levels must be nonnegative")
        object.__setattr__(self, "delta", d)
        if self.strategy != "none" and self.samples < 1:
            raise UsageError("sample count must be >= 1")
        if self.strategy == "type2" and self.eta is None:
            raise UsageError("the Type II strategy requires eta")
        if self.eta is not None and not self.eta > 0.0:
            raise UsageError("eta must be positive")


def _sampled_values(f, x, spec: RobustnessSpec, rng: RngStream) -> np.ndarray:
    """(M, m) matrix of f at the M neighborhood samples of x."""
    ns = NeighborhoodSpec(center=np.asarray(x, dtype=float), noise=spec.delta,
                          count=spec.samples, scheme=spec.scheme)
    return np.stack([np.atleast_1d(np.asarray(f(row), dtype=float))
                     for row in neighborhood_samples(ns, rng)])


def penalty_objectives(vals, f_nominal, signs) -> np.ndarray:
    """Penalty strategy over the (M, m) sample matrix ``vals``.

    f(x) worsened by P_r = mean_j |f_r(xi_j) - f_r(x)| / |f_r(x)|, with the
    sense ``signs`` of :func:`~rbrdo.core.sense_signs`.
    """
    if np.any(np.abs(f_nominal) < _DENOM_FLOOR):
        raise DivisionHazardError("penalty-based robustness needs |f_r(x)| > 0")
    pen = np.abs(vals - f_nominal).mean(axis=0) / np.abs(f_nominal)
    return f_nominal + signs * pen


def worst_sample(vals, f_nominal, signs) -> np.ndarray:
    """Type II worst-case reference: the row of ``vals`` whose objectives
    are worst sense-wise, summed after normalization by |f(x)|."""
    scale = np.maximum(np.abs(f_nominal), _DENOM_FLOOR)
    badness = ((vals - f_nominal) * signs / scale).sum(axis=1)
    return vals[int(np.argmax(badness))]


def type2_ratio(f_val, f_ref) -> float:
    """Normalized distance ||f_ref - f|| / ||f|| of the Type II cut."""
    f_val = np.atleast_1d(np.asarray(f_val, dtype=float))
    f_ref = np.atleast_1d(np.asarray(f_ref, dtype=float))
    denom = float(np.linalg.norm(f_val))
    if denom < _DENOM_FLOOR:
        raise DivisionHazardError("Type II robustness needs ||f(x)|| > 0")
    return float(np.linalg.norm(f_ref - f_val)) / denom


def effective_mean(f, x, spec: RobustnessSpec, rng: RngStream) -> np.ndarray:
    """Coordinate-wise mean of f over the noise neighborhood of x.

    With delta = 0 every sample equals x and the result is exactly f(x).
    """
    if spec.strategy != "effective_mean":
        raise UsageError("spec.strategy must be 'effective_mean'")
    x = np.asarray(x, dtype=float)
    if not np.any(spec.delta > 0.0):
        return np.atleast_1d(np.asarray(f(x), dtype=float))
    return _sampled_values(f, x, spec, rng).mean(axis=0)


def penalty_robust(f, x, spec: RobustnessSpec, rng: RngStream,
                   senses) -> np.ndarray:
    """f(x) worsened by the mean normalized absolute deviation per objective
    (:func:`penalty_objectives`); the penalty always degrades the candidate.
    """
    if spec.strategy != "penalty":
        raise UsageError("spec.strategy must be 'penalty'")
    fx = np.atleast_1d(np.asarray(f(x), dtype=float))
    vals = _sampled_values(f, x, spec, rng)
    return penalty_objectives(vals, fx, sense_signs(senses))


def type2_feasible(f_val, f_eff, eta: float) -> bool:
    """True when ||f_eff - f|| / ||f|| <= eta (the Type II robustness cut)."""
    return type2_ratio(f_val, f_eff) <= eta


def type2_reference(f, x, spec: RobustnessSpec, rng: RngStream,
                    senses=None) -> np.ndarray:
    """Perturbed objective vector the Type II cut compares against f(x).

    Mean of the samples by default; with ``worst_case`` the sample whose
    objectives are worst (see :func:`worst_sample`).
    """
    if spec.strategy != "type2":
        raise UsageError("spec.strategy must be 'type2'")
    vals = _sampled_values(f, x, spec, rng)
    if not spec.worst_case:
        return vals.mean(axis=0)
    if senses is None:
        raise UsageError("worst-case Type II aggregation requires senses")
    fx = np.atleast_1d(np.asarray(f(x), dtype=float))
    return worst_sample(vals, fx, sense_signs(senses))
