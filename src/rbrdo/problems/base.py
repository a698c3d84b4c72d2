"""Shared containers for the shipped problems, the builder that derives
each deterministic form from its uncertain definition, and the helper that
builds a margin's gradient over the window of variables it sees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core import Bounds, Sense
from ..formulation import RbrdoProblem


@dataclass(frozen=True)
class DeterministicProblem:
    """A box-bounded NLP with penalizable inequality constraints.

    ``objective`` and ``violation`` broadcast over a leading batch axis of
    the design vector; ``violation`` is the summed positive part of the
    constraint residuals (zero when feasible). The problem is its own DE
    evaluator: ``de_minimize(problem, problem.bounds, ...)``.
    """

    name: str
    bounds: Bounds
    sense: Sense
    objective: Callable[[np.ndarray], np.ndarray]
    violation: Callable[[np.ndarray], np.ndarray]

    def evaluate_batch(self, xs, rng):
        """Rows of xs -> ((n, 1) objectives, (n,) violations); no noise."""
        objs = np.asarray(self.objective(xs), dtype=float)
        return objs[:, None], np.asarray(self.violation(xs), dtype=float)


def deterministic_form(problem: RbrdoProblem,
                       bounds: Optional[Bounds] = None) -> DeterministicProblem:
    """The uncertain problem with every random variable at its mean.

    objective(d) = F(d, mu(d)) and violation(d) = guard(d) +
    sum_i max(-g_i(d, mu(d)), 0). Rows the domain guard rejects get
    objective 0 and the guard as violation, as the uncertain evaluation
    rejects them. ``bounds`` defaults to the uncertain design bounds.
    """
    def at_mean(d):
        d = np.asarray(d, dtype=float)
        guard = (np.zeros(d.shape[:-1]) if problem.domain_guard is None
                 else np.asarray(problem.domain_guard(d), dtype=float))
        return d, guard, problem.random_vars(d)[0]

    def objective(d):
        d, guard, mu = at_mean(d)
        with np.errstate(all="ignore"):
            f = np.asarray(problem.objective(d, mu), dtype=float)
        return np.where(guard > 0.0, 0.0, f)

    def violation(d):
        d, guard, mu = at_mean(d)
        with np.errstate(all="ignore"):
            total = sum((np.maximum(-pf.g(d, mu[..., pf.columns]), 0.0)
                         for pf in problem.constraints), guard)
        return np.where(guard > 0.0, guard, total)

    return DeterministicProblem(
        name=problem.name,
        bounds=problem.det_bounds if bounds is None else bounds,
        sense=problem.senses[0],
        objective=objective,
        violation=violation,
    )


def gradient(x, *columns):
    """A margin's gradient, one column (an array or a scalar) per variable
    of its window ``x``, shaped and laid out like x: the MPP engine's
    coordinate-major view of it is then contiguous."""
    out = np.empty_like(x, dtype=float)
    for j, column in enumerate(columns):
        out[..., j] = column
    return out
