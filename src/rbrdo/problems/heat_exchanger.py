"""Three-stage heat exchanger network sizing.

Deterministic target: minimize the total transfer area A_T = A1 + A2 + A3.
The full eight-variable NLP carries the stage temperatures of the hot
streams explicitly; eliminating the heat-balance inequalities (they bind at
the optimum) reduces it to five variables d = (A1, A2, A3, T1, T2) with
three inequality constraints, the only form shipped (the full form is a
test oracle). The known minimum is A_T ~= 7049.25, at
(A1, A2, A3) = (579.31, 1359.97, 5109.97).

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
from .base import DeterministicProblem, deterministic_form, gradient

MU = np.array([2500.0 / 3.0, 300.0, 250000.0 / 3.0, 400.0, 1250.0,
               1.25e6, 2500.0, 100.0])
SIGMA = 0.05 * MU

_BOUNDS_REDUCED = Bounds(
    np.array([1e2, 1e3, 1e3, 10.0, 10.0]),
    np.array([1e4, 1e4, 1e4, 1e3, 1e3]),
)


def _m1(d, x):
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    d1, d4 = d[..., 0], d[..., 3]
    return x2 * d1 + x3 - d1 * d4 - x1 * d4


def _m2(d, x):
    x4, x5 = x[..., 0], x[..., 1]
    d2, d4, d5 = d[..., 1], d[..., 3], d[..., 4]
    return x4 * d2 + x5 * (d4 - d5) - d5 * d2


def _m3(d, x):
    x6, x7, x8 = x[..., 0], x[..., 1], x[..., 2]
    return x7 * d[..., 4] + x8 * d[..., 2] - x6


def _objective(d, x):
    d = np.asarray(d, dtype=float)
    return d[..., 0] + d[..., 1] + d[..., 2]


def deterministic() -> DeterministicProblem:
    """Reduced five-variable form evaluated at the nominal coefficients."""
    return deterministic_form(rbrdo())


def _performance_functions():
    # each margin sees the window of X it reads: (X1, X2, X3), (X4, X5)
    # and (X6, X7, X8), and is affine in it
    def g1_grad(d, x):
        return gradient(x, -d[..., 3], d[..., 0], 1.0)

    def g2_grad(d, x):
        return gradient(x, d[..., 1], d[..., 3] - d[..., 4])

    def g3_grad(d, x):
        return gradient(x, -1.0, d[..., 4], d[..., 2])

    return (PerformanceFunction(_m1, g1_grad, name="g1", reads=(0, 1, 2),
                                affine=True),
            PerformanceFunction(_m2, g2_grad, name="g2", reads=(3, 4),
                                affine=True),
            PerformanceFunction(_m3, g3_grad, name="g3", reads=(5, 6, 7),
                                affine=True))


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
