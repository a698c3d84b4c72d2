"""Two-variable nonlinear benchmark with three inequality constraints.

Deterministic form: minimize d1 + d2 subject to three margins staying
nonnegative on 0 <= d <= 10; the optimum sits at the intersection of the
first two constraint boundaries. Uncertain forms treat the design point as
the mean of two independent normals with standard deviation 0.3 and bound
the failure probability of each margin.

The default (`variant="standard"`) margin family is

    m1 = x1^2 x2 / 20 - 1
    m2 = (x1 + x2 - 5)^2 / 30 + (x1 - x2 - 12)^2 / 120 - 1
    m3 = 80 / (x1^2 + 8 x2 + 5) - 1

(positive = safe). `variant="alternate"` keeps an alternative printed sign
convention for m2/m3 that circulates in the literature; it changes the
feasible side of both constraints and is retained for comparison only.
"""

from __future__ import annotations

import numpy as np

from ..core import Bounds, Sense
from ..errors import UsageError
from ..formulation import RbrdoProblem
from ..reliability import PerformanceFunction
from .base import DeterministicProblem, deterministic_form

SIGMA = 0.3
OPTIMUM_DET = 5.176532          # at d = (3.113885, 2.062648)
OPTIMUM_RBDO_BETA3 = 6.720532   # at d = (3.440563, 3.279963)


def _m1(x1, x2):
    return x1 * x1 * x2 / 20.0 - 1.0


def _m2(x1, x2):
    return ((x1 + x2 - 5.0) ** 2 / 30.0
            + (x1 - x2 - 12.0) ** 2 / 120.0 - 1.0)


def _m3(x1, x2):
    return 80.0 / (x1 * x1 + 8.0 * x2 + 5.0) - 1.0


def margins(x) -> np.ndarray:
    """All three margins stacked on the last axis; positive = safe."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([_m1(x1, x2), _m2(x1, x2), _m3(x1, x2)], axis=-1)


def _objective(d, x):
    d = np.asarray(d, dtype=float)
    return d[..., 0] + d[..., 1]


def deterministic(variant: str = "standard") -> DeterministicProblem:
    return deterministic_form(rbrdo(variant), OPTIMUM_DET)


def _performance_functions(variant: str):
    def grad1(d, x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([x1 * x2 / 10.0, x1 * x1 / 20.0], axis=-1)

    def grad2(d, x):
        x1, x2 = x[..., 0], x[..., 1]
        p = (x1 + x2 - 5.0) / 15.0
        q = (x1 - x2 - 12.0) / 60.0
        return np.stack([p + q, p - q], axis=-1)

    def grad3(d, x):
        x1, x2 = x[..., 0], x[..., 1]
        den = (x1 * x1 + 8.0 * x2 + 5.0) ** 2
        return np.stack([-160.0 * x1 / den, -640.0 / den], axis=-1)

    if variant == "standard":
        return (
            PerformanceFunction(lambda d, x: _m1(x[..., 0], x[..., 1]),
                                grad1, name="g1"),
            PerformanceFunction(lambda d, x: _m2(x[..., 0], x[..., 1]),
                                grad2, name="g2"),
            PerformanceFunction(lambda d, x: _m3(x[..., 0], x[..., 1]),
                                grad3, name="g3"),
        )
    neg = lambda f: (lambda d, x: -f(x[..., 0], x[..., 1]))
    flip = lambda g: (lambda d, x: -g(d, x))

    def alt2(d, x):
        x1, x2 = x[..., 0], x[..., 1]
        return (1.0 - (x1 + x2 - 5.0) ** 2 / 30.0
                + (x1 - x2 - 12.0) ** 2 / 120.0)

    def alt2_grad(d, x):
        x1, x2 = x[..., 0], x[..., 1]
        p = (x1 + x2 - 5.0) / 15.0
        q = (x1 - x2 - 12.0) / 60.0
        return np.stack([-p + q, -p - q], axis=-1)

    return (
        PerformanceFunction(neg(_m1), flip(grad1), name="g1"),
        PerformanceFunction(alt2, alt2_grad, name="g2"),
        PerformanceFunction(neg(_m3), flip(grad3), name="g3"),
    )


def _random_vars(d):
    d = np.asarray(d, dtype=float)
    return d, np.full_like(d, SIGMA)


def rbrdo(variant: str = "standard") -> RbrdoProblem:
    if variant not in ("standard", "alternate"):
        raise UsageError(f"unknown benchmark variant {variant!r}")
    return RbrdoProblem(
        name="benchmark",
        det_bounds=Bounds(np.zeros(2), np.full(2, 10.0)),
        beta_bounds=(1.0, 3.0),
        senses=(Sense.MINIMIZE,),
        objective=_objective,
        constraints=_performance_functions(variant),
        random_vars=_random_vars,
    )
