"""Two-variable nonlinear benchmark with three inequality constraints.

Deterministic form: minimize d1 + d2 subject to three margins staying
nonnegative on 0 <= d <= 10; the optimum sits at the intersection of the
first two constraint boundaries. Uncertain forms treat the design point as
the mean of two independent normals with standard deviation 0.3 and bound
the failure probability of each margin. The margins are

    m1 = x1^2 x2 / 20 - 1
    m2 = (x1 + x2 - 5)^2 / 30 + (x1 - x2 - 12)^2 / 120 - 1
    m3 = 80 / (x1^2 + 8 x2 + 5) - 1

(positive = safe), the family whose published deterministic optimum is
f = 5.176532 at d = (3.113885, 2.062648).
"""

from __future__ import annotations

import numpy as np

from ..core import Bounds, Sense
from ..formulation import RbrdoProblem
from ..reliability import PerformanceFunction
from .base import DeterministicProblem, deterministic_form, gradient

SIGMA = 0.3


def _m1(x1, x2):
    return x1 * x1 * x2 / 20.0 - 1.0


def _m2(x1, x2):
    return ((x1 + x2 - 5.0) ** 2 / 30.0
            + (x1 - x2 - 12.0) ** 2 / 120.0 - 1.0)


def _m3(x1, x2):
    return 80.0 / (x1 * x1 + 8.0 * x2 + 5.0) - 1.0


def _objective(d, x):
    d = np.asarray(d, dtype=float)
    return d[..., 0] + d[..., 1]


def deterministic() -> DeterministicProblem:
    return deterministic_form(rbrdo())


def _performance_functions():
    def grad1(d, x):
        x1, x2 = x[..., 0], x[..., 1]
        return gradient(x, x1 * x2 / 10.0, x1 * x1 / 20.0)

    def grad2(d, x):
        x1, x2 = x[..., 0], x[..., 1]
        p = (x1 + x2 - 5.0) / 15.0
        q = (x1 - x2 - 12.0) / 60.0
        return gradient(x, p + q, p - q)

    def grad3(d, x):
        x1, x2 = x[..., 0], x[..., 1]
        den = (x1 * x1 + 8.0 * x2 + 5.0) ** 2
        return gradient(x, -160.0 * x1 / den, -640.0 / den)

    return (
        PerformanceFunction(lambda d, x: _m1(x[..., 0], x[..., 1]),
                            grad1, name="g1"),
        PerformanceFunction(lambda d, x: _m2(x[..., 0], x[..., 1]),
                            grad2, name="g2"),
        PerformanceFunction(lambda d, x: _m3(x[..., 0], x[..., 1]),
                            grad3, name="g3"),
    )


def _random_vars(d):
    d = np.asarray(d, dtype=float)
    return d, np.full_like(d, SIGMA)


def rbrdo() -> RbrdoProblem:
    return RbrdoProblem(
        name="benchmark",
        det_bounds=Bounds(np.zeros(2), np.full(2, 10.0)),
        beta_bounds=(1.0, 3.0),
        senses=(Sense.MINIMIZE,),
        objective=_objective,
        constraints=_performance_functions(),
        random_vars=_random_vars,
    )
