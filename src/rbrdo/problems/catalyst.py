"""Catalyst mixing along a tubular reactor (optimal control, 3 segments).

The state y = (y1, y2) holds the molar fractions of the first two species;
the piecewise-constant control v(t) in [0, 1] blends the two catalysts:

    y1' = v (10 y2 - y1)
    y2' = v (y1 - 10 y2) - (1 - v) y2,   y(0) = (1, 0),  t in [0, 1].

The target is to maximize the final conversion f = 1 - y1(1) - y2(1). With
three segments the decision variables are the segment controls and the two
switch times t1 <= 0.5 < t2; the deterministic optimum is f = 0.048065 at
v = (1, 0.2248, 0), t = (0.1338, 0.7237).

Within a segment the system is linear time-invariant, y' = A(v) y. The
production integrator is classical fixed-step RK4 with h = 1e-3; because
one RK4 step of a linear system is multiplication by the degree-4 Taylor
polynomial of exp(hA), a whole segment is that matrix raised to the step
count, which this module computes by binary exponentiation. RK4 is the
only integrator; its independent reference, the closed-form eigenvalue
propagator, lives with the test oracles (``tests/oracles.py``).

Uncertain forms treat the segment controls as independent normals with
coefficient of variation 0.1 whose means are decision variables; the ODE is
driven by the most probable (reliability-degraded) control values, so the
reliability index feeds directly into the objective.
"""

from __future__ import annotations

import numpy as np

from ..core import Bounds, Sense
from ..formulation import RbrdoProblem
from ..reliability import PerformanceFunction
from .base import DeterministicProblem, deterministic_form, gradient

DEFAULT_STEP = 1e-3
_MU_FLOOR = 1e-6  # closed box stand-in for the open bound 0 < mu

_BOUNDS_DET = Bounds(np.array([0.0, 0.0, 0.0, 0.0, 0.5]),
                     np.array([1.0, 1.0, 1.0, 0.5, 1.0]))
_BOUNDS_RBRDO = Bounds(np.array([_MU_FLOOR, _MU_FLOOR, _MU_FLOOR, 0.0, 0.5]),
                       np.array([1.0, 1.0, 1.0, 0.5, 1.0]))
_Y0 = np.array([1.0, 0.0])


def _system_matrix(v) -> np.ndarray:
    """A(v) of y' = A(v) y, batched over the shape of v."""
    v = np.asarray(v, dtype=float)
    a = np.empty(v.shape + (2, 2))
    a[..., 0, 0] = -v
    a[..., 0, 1] = 10.0 * v
    a[..., 1, 0] = v
    a[..., 1, 1] = -(9.0 * v + 1.0)
    return a


def _rk4_segment_matrix(a, duration, h):
    """RK4 propagator of one segment: (I + Z + Z^2/2 + Z^3/6 + Z^4/24)^n.

    ``duration`` holds one segment length per matrix of ``a``; each row
    takes n = ceil(duration/h) equal steps of size <= h (none for a zero
    duration). Binary exponentiation over the per-row exponent reproduces
    the classical step-by-step iteration exactly (the system is linear, so
    each RK4 step is the same matrix product).
    """
    eye = np.broadcast_to(np.eye(2), a.shape)
    n = np.where(duration > 0.0,
                 np.maximum(1.0, np.ceil(duration / h - 1e-12)), 0.0)
    z = (duration / np.maximum(n, 1.0))[..., None, None] * a
    z2 = z @ z
    step = eye + z + z2 / 2.0 + (z2 @ z) / 6.0 + (z2 @ z2) / 24.0
    out = eye
    p = step
    e = n.astype(np.int64)
    while e.any():
        out = np.where((e & 1).astype(bool)[..., None, None], p @ out, out)
        e >>= 1
        if e.any():
            p = p @ p
    return out


def _final_state(v, t1, t2, h=DEFAULT_STEP):
    """y(1) for segment values v (..., 3) and switch times broadcast to
    v's leading axes; every row integrates with its own switch times."""
    lead = v.shape[:-1]
    t1 = np.broadcast_to(np.asarray(t1, dtype=float), lead)
    t2 = np.broadcast_to(np.asarray(t2, dtype=float), lead)
    y = np.broadcast_to(_Y0, lead + (2,)).copy()
    for seg, duration in enumerate((t1, t2 - t1, 1.0 - t2)):
        m = _rk4_segment_matrix(_system_matrix(v[..., seg]), duration, h)
        y = np.einsum("...ij,...j->...i", m, y)
    return y


def _decision_objective(d, x):
    """Objective over decision rows d = (c0, c1, c2, t1, t2), controls x."""
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    y = _final_state(x[..., :3], np.clip(d[..., 3], 0.0, 0.5),
                     np.clip(d[..., 4], 0.5, 1.0))
    return 1.0 - y[..., 0] - y[..., 1]


def deterministic() -> DeterministicProblem:
    """The controls at their means, on bounds that admit c3 = 0 (the
    optimum); the uncertain bounds floor the means at a positive value."""
    return deterministic_form(rbrdo(), bounds=_BOUNDS_DET)


def _random_vars(d):
    d = np.asarray(d, dtype=float)
    mu = d[..., :3]
    return mu, 0.1 * np.maximum(mu, _MU_FLOOR)


def _performance_functions():
    # margin i is the control x_i itself, the one variable it sees
    def g(d, x):
        return np.asarray(x, dtype=float)[..., 0]

    def grad(d, x):
        return gradient(x, 1.0)

    return tuple(PerformanceFunction(g, grad, name=f"g{i + 1}", reads=(i,))
                 for i in range(3))


def rbrdo() -> RbrdoProblem:
    return RbrdoProblem(
        name="catalyst",
        det_bounds=_BOUNDS_RBRDO,
        beta_bounds=(0.1, 5.0),
        senses=(Sense.MAXIMIZE,),
        objective=_decision_objective,
        constraints=_performance_functions(),
        random_vars=_random_vars,
        noise_mask=np.array([True, True, True, False, False]),
        objective_at_mpp=True,
    )
