"""Decision/objective vector types, Pareto dominance and non-dominated archives.

Conventions used throughout the package:

* objective vectors are plain 1-D numpy arrays;
* each objective carries a :class:`Sense`; a multi-objective problem orders
  its objectives with every minimized objective before every maximized one;
* dominance is the strict Pareto partial order: no worse everywhere, strictly
  better somewhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import UsageError


class Sense(enum.Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


class Dominance(enum.Enum):
    A_DOMINATES = 1
    B_DOMINATES = -1
    NO_DOMINANCE = 0


def sense_signs(senses) -> np.ndarray:
    """+1 for minimized objectives, -1 for maximized ones.

    Multiplying objectives by these signs yields the canonical all-minimize
    form in which smaller is always better.
    """
    return np.array([1.0 if s is Sense.MINIMIZE else -1.0 for s in senses])


@dataclass(frozen=True)
class Bounds:
    """Box constraints lower <= x <= upper, coordinate-wise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size < 1:
            raise UsageError("bounds must be two equal-length 1-D vectors")
        if np.any(lo > hi):
            raise UsageError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: np.ndarray, atol: float = 0.0) -> bool:
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def concat(self, other: "Bounds") -> "Bounds":
        return Bounds(np.concatenate([self.lower, other.lower]),
                      np.concatenate([self.upper, other.upper]))


@dataclass(frozen=True)
class EvaluatedSolution:
    """A decision vector together with its objective values and feasibility.

    ``feasible`` is derived: a solution is feasible exactly when its
    accumulated constraint violation is zero.
    """

    decision: np.ndarray
    objectives: np.ndarray
    constraint_violation: float = 0.0

    def __post_init__(self):
        dec = np.asarray(self.decision, dtype=float)
        obj = np.asarray(self.objectives, dtype=float)
        if not np.all(np.isfinite(dec)):
            raise UsageError("decision vector must be finite")
        if self.constraint_violation < 0.0:
            raise UsageError("constraint violation must be nonnegative")
        object.__setattr__(self, "decision", dec)
        object.__setattr__(self, "objectives", obj)

    @property
    def feasible(self) -> bool:
        return self.constraint_violation == 0.0


def dominates_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether all-minimize row a dominates row b, over their leading axes."""
    return np.all(a <= b, axis=-1) & np.any(a < b, axis=-1)


def dominates(a: EvaluatedSolution, b: EvaluatedSolution, senses) -> Dominance:
    """Strict Pareto comparison of two (feasibility-adjusted) solutions."""
    fa, fb = a.objectives, b.objectives
    if fa.shape != fb.shape or fa.size != len(senses):
        raise UsageError("objective dimension mismatch")
    s = sense_signs(senses)
    ca, cb = s * fa, s * fb
    if dominates_rows(ca, cb):
        return Dominance.A_DOMINATES
    if dominates_rows(cb, ca):
        return Dominance.B_DOMINATES
    return Dominance.NO_DOMINANCE


def _canonical_matrix(pop, senses) -> np.ndarray:
    objs = np.array([s.objectives for s in pop], dtype=float)
    if objs.shape[1] != len(senses):
        raise UsageError("objective dimension mismatch")
    return objs * sense_signs(senses)


def non_dominated_mask(canon: np.ndarray) -> np.ndarray:
    """Boolean mask of maximal rows of an all-minimize objective matrix."""
    return ~dominates_rows(canon[:, None, :], canon[None, :, :]).any(axis=0)


def non_dominated_filter(pop, senses) -> list:
    """Maximal elements of ``pop`` under the dominance partial order."""
    if not pop:
        raise UsageError("population must be nonempty")
    keep = non_dominated_mask(_canonical_matrix(pop, senses))
    return [s for s, k in zip(pop, keep) if k]


class ParetoArchive:
    """Mutually non-dominated set of feasible solutions.

    Insertions keep the invariant: a candidate enters only if no member
    dominates it, and members it dominates are evicted. Capacity is
    unbounded. Single-writer; reads may be shared.
    """

    def __init__(self, senses):
        self.senses = tuple(senses)
        self._signs = sense_signs(self.senses)
        self.members: list[EvaluatedSolution] = []
        self._canon = np.empty((0, len(self.senses)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def insert(self, sol: EvaluatedSolution) -> bool:
        """Try to add ``sol``; returns True if it entered the archive."""
        if sol.objectives.size != len(self.senses):
            raise UsageError("objective dimension mismatch")
        if not sol.feasible:
            raise UsageError("infeasible solutions never enter an archive")
        c = self._signs * sol.objectives
        if len(self.members):
            if np.any(dominates_rows(self._canon, c)):
                return False
            evict = dominates_rows(c, self._canon)
            if np.any(evict):
                keep = ~evict
                self.members = [m for m, k in zip(self.members, keep) if k]
                self._canon = self._canon[keep]
        self.members.append(sol)
        self._canon = np.vstack([self._canon, c])
        return True

    def objective_matrix(self) -> np.ndarray:
        return np.array([m.objectives for m in self.members], dtype=float)

    def decision_matrix(self) -> np.ndarray:
        return np.array([m.decision for m in self.members], dtype=float)

