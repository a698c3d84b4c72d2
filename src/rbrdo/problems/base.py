"""Shared containers for the shipped application problems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core import Bounds, Sense


@dataclass(frozen=True)
class DeterministicProblem:
    """A box-bounded NLP with penalizable inequality constraints.

    ``objective`` and ``violation`` broadcast over a leading batch axis of
    the design vector; ``violation`` is the summed positive part of the
    constraint residuals (zero when feasible).
    """

    name: str
    bounds: Bounds
    sense: Sense
    objective: Callable[[np.ndarray], np.ndarray]
    violation: Callable[[np.ndarray], np.ndarray]
    optimum: Optional[float] = None

    def evaluator(self) -> "DeterministicProblem":
        """The problem itself: it evaluates DE populations as one batch."""
        return self

    def evaluate_batch(self, xs, streams):
        """Rows of xs -> ((n, 1) objectives, (n,) violations); no noise."""
        objs = np.asarray(self.objective(xs), dtype=float)
        return objs[:, None], np.asarray(self.violation(xs), dtype=float)
