"""Two-CSTR reactor network: maximize the intermediate concentration.

The six-variable NLP (concentrations, residence times, four equalities) is
reduced by eliminating the equalities: with d = (cA1, cA2) the outlet
concentration of the intermediate species becomes a closed-form rational
function of d and the four rate constants, and the residence-time budget
sqrt(V1) + sqrt(V2) <= 4 becomes a single inequality in d. The landscape
keeps the well-known structure of one global optimum (f ~= 0.389, both
reactors active) and two locals (f ~= 0.375 and f ~= 0.388, single reactor).

Uncertain forms randomize the rate constants (coefficient of variation
0.15). The reduced inequality needs d2 <= d1 for real square roots; designs
violating that ordering receive a large finite violation so the optimizer
keeps useful selection pressure.
"""

from __future__ import annotations

import numpy as np

from ..core import Bounds, Sense
from ..formulation import RbrdoProblem
from ..reliability import PerformanceFunction
from .base import DeterministicProblem, deterministic_form

MU = np.array([0.09755988, 0.09658428, 0.0391908, 0.03527172])
SIGMA = 0.15 * MU
OPTIMUM_DET = 0.389  # at (cA1, cA2) = (0.771, 0.517), V = (3.037, 5.096)

_BOUNDS = Bounds(np.full(2, 1e-5), np.ones(2))
_GUARD_SCALE = 1e6


def concentration(d, x) -> np.ndarray:
    """Outlet concentration of the intermediate species (reduced form)."""
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    d1, d2 = d[..., 0], d[..., 1]
    y1 = x[..., 0] * d1
    y2 = x[..., 1] * d2
    a = y1 + x[..., 2] * (1.0 - d1)
    b = y2 + x[..., 3] * (d1 - d2)
    return y2 * (y1 * (1.0 - d1) - a * (d2 - d1)) / (a * b)


def time_budget_margin(d, x) -> np.ndarray:
    """4 - sqrt(V1) - sqrt(V2) with the residence times eliminated."""
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    d1, d2 = d[..., 0], d[..., 1]
    v1 = (1.0 - d1) / (x[..., 0] * d1)
    v2 = (d1 - d2) / (x[..., 1] * d2)
    return 4.0 - np.sqrt(v1) - np.sqrt(v2)


def _margin_grad(d, x):
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    d1, d2 = d[..., 0], d[..., 1]
    v1 = (1.0 - d1) / (x[..., 0] * d1)
    v2 = (d1 - d2) / (x[..., 1] * d2)
    g = np.zeros_like(x, shape=np.broadcast_shapes(
        d[..., :1].shape, x[..., :1].shape)[:-1] + (4,))
    g[..., 0] = 0.5 * np.sqrt(v1) / x[..., 0]
    g[..., 1] = 0.5 * np.sqrt(v2) / x[..., 1]
    return g


def domain_guard(d) -> np.ndarray:
    """Large finite violation when the ordering d2 <= d1 is broken."""
    d = np.asarray(d, dtype=float)
    return _GUARD_SCALE * np.maximum(d[..., 1] - d[..., 0], 0.0)


def deterministic() -> DeterministicProblem:
    return deterministic_form(rbrdo(), OPTIMUM_DET)


def _random_vars(d):
    d = np.asarray(d, dtype=float)
    shape = d.shape[:-1] + (4,)
    return np.broadcast_to(MU, shape), np.broadcast_to(SIGMA, shape)


def rbrdo() -> RbrdoProblem:
    return RbrdoProblem(
        name="reactor",
        det_bounds=_BOUNDS,
        beta_bounds=(0.1, 5.0),
        senses=(Sense.MAXIMIZE,),
        objective=concentration,
        constraints=(PerformanceFunction(time_budget_margin, _margin_grad,
                                         name="g1", reads=(0, 1)),),
        random_vars=_random_vars,
        domain_guard=domain_guard,
    )
