"""Three-stage heat exchanger network sizing.

Deterministic target: minimize the total transfer area A_T = A1 + A2 + A3.
The full eight-variable NLP carries the stage temperatures of the hot
streams explicitly; eliminating the heat-balance inequalities (they bind at
the optimum) reduces it to five variables d = (A1, A2, A3, T1, T2) with
three inequality constraints, the only form shipped (the full form is a
test oracle). The known minimum is A_T ~= 7049.25.

Uncertain forms randomize the constant coefficients of the reduced
constraints as eight independent normals (coefficient of variation 0.05)
and bound each margin's failure probability. Margins are written
positive = safe:

    M1 = X2 d1 + X3 - d1 d4 - X1 d4
    M2 = X4 d2 + X5 (d4 - d5) - d5 d2
    M3 = X7 d5 + X8 d3 - X6
"""

from __future__ import annotations

import numpy as np

from ..core import Bounds, Sense
from ..formulation import RbrdoProblem
from ..reliability import PerformanceFunction
from .base import DeterministicProblem, deterministic_form

MU = np.array([2500.0 / 3.0, 300.0, 250000.0 / 3.0, 400.0, 1250.0,
               1.25e6, 2500.0, 100.0])
SIGMA = 0.05 * MU
OPTIMUM_DET = 7049.25  # at (A1, A2, A3) = (579.31, 1359.97, 5109.97)

_BOUNDS_REDUCED = Bounds(
    np.array([1e2, 1e3, 1e3, 10.0, 10.0]),
    np.array([1e4, 1e4, 1e4, 1e3, 1e3]),
)


def _m1(d, x):
    d1, d4 = d[..., 0], d[..., 3]
    return x[..., 1] * d1 + x[..., 2] - d1 * d4 - x[..., 0] * d4


def _m2(d, x):
    d2, d4, d5 = d[..., 1], d[..., 3], d[..., 4]
    return x[..., 3] * d2 + x[..., 4] * (d4 - d5) - d5 * d2


def _m3(d, x):
    return x[..., 6] * d[..., 4] + x[..., 7] * d[..., 2] - x[..., 5]


def _objective(d, x):
    d = np.asarray(d, dtype=float)
    return d[..., 0] + d[..., 1] + d[..., 2]


def deterministic() -> DeterministicProblem:
    """Reduced five-variable form evaluated at the nominal coefficients."""
    return deterministic_form(rbrdo(), OPTIMUM_DET)


def _performance_functions():
    def g1_grad(d, x):
        d = np.asarray(d, dtype=float)
        g = np.zeros(np.broadcast_shapes(d[..., :1].shape, x[..., :1].shape)
                     [:-1] + (8,))
        g[..., 0] = -d[..., 3]
        g[..., 1] = d[..., 0]
        g[..., 2] = 1.0
        return g

    def g2_grad(d, x):
        d = np.asarray(d, dtype=float)
        g = np.zeros(np.broadcast_shapes(d[..., :1].shape, x[..., :1].shape)
                     [:-1] + (8,))
        g[..., 3] = d[..., 1]
        g[..., 4] = d[..., 3] - d[..., 4]
        return g

    def g3_grad(d, x):
        d = np.asarray(d, dtype=float)
        g = np.zeros(np.broadcast_shapes(d[..., :1].shape, x[..., :1].shape)
                     [:-1] + (8,))
        g[..., 5] = -1.0
        g[..., 6] = d[..., 4]
        g[..., 7] = d[..., 2]
        return g

    return (PerformanceFunction(_m1, g1_grad, name="g1"),
            PerformanceFunction(_m2, g2_grad, name="g2"),
            PerformanceFunction(_m3, g3_grad, name="g3"))


def _random_vars(d):
    d = np.asarray(d, dtype=float)
    shape = d.shape[:-1] + (8,)
    return np.broadcast_to(MU, shape), np.broadcast_to(SIGMA, shape)


def rbrdo() -> RbrdoProblem:
    return RbrdoProblem(
        name="heat-exchanger",
        det_bounds=_BOUNDS_REDUCED,
        beta_bounds=(0.1, 3.0),
        senses=(Sense.MINIMIZE,),
        objective=_objective,
        constraints=_performance_functions(),
        random_vars=_random_vars,
    )
