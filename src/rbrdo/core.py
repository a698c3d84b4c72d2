"""Senses, bounds, Pareto dominance and the array-backed non-dominated archive.

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
    """A decision vector with its objective values and constraint violation:
    what single-objective DE returns."""

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


def dominates_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether all-minimize row a dominates row b, over their leading axes.

    One comparison per objective column: reducing over a last axis of a
    few objectives costs about ten times as much.
    """
    le, lt = a[..., 0] <= b[..., 0], a[..., 0] < b[..., 0]
    for j in range(1, a.shape[-1]):
        le &= a[..., j] <= b[..., j]
        lt |= a[..., j] < b[..., j]
    return le & lt


def non_dominated_mask(canon: np.ndarray, settled: int = 0) -> np.ndarray:
    """Boolean mask of maximal rows of an all-minimize objective matrix.

    A MODE run calls it once per generation, over its archive followed by
    the generation's feasible offspring. The first ``settled`` rows must
    be mutually non-dominated already: pairs of them are not compared, so
    k settled rows and a new ones cost (k + a) * a comparisons instead of
    (k + a) ** 2.
    """
    new = canon[settled:]
    return np.concatenate([
        ~dominates_rows(new[:, None, :], canon[None, :settled, :]).any(axis=0),
        ~dominates_rows(canon[:, None, :], new[None, :, :]).any(axis=0)])


class ParetoArchive:
    """Mutually non-dominated set of feasible evaluations, as two arrays.

    ``decisions`` (k, dim) and ``objectives`` (k, m) hold the members in
    first-entry order. A batch insert keeps the rows of the members
    followed by the batch that no other of those rows dominates: the same
    rows, in the same order, as inserting the batch one row at a time,
    since a row dominated by an evicted row is dominated by a survivor.
    Equal rows all stay. Capacity is unbounded; single-writer.
    """

    def __init__(self, senses, dim: int):
        self.senses = tuple(senses)
        self._signs = sense_signs(self.senses)
        self.decisions = np.empty((0, dim))
        self.objectives = np.empty((0, len(self.senses)))

    def __len__(self) -> int:
        return len(self.objectives)

    def insert(self, xs, objs) -> int:
        """Add a batch of feasible rows; returns how many of them entered."""
        xs = np.asarray(xs, dtype=float)
        objs = np.asarray(objs, dtype=float)
        if objs.ndim != 2 or objs.shape[1] != len(self.senses):
            raise UsageError("objective dimension mismatch")
        if xs.shape != (len(objs), self.decisions.shape[1]):
            raise UsageError("decision dimension mismatch")
        if not np.all(np.isfinite(xs)):
            raise UsageError("decision vector must be finite")
        objectives = np.vstack([self.objectives, objs])
        keep = non_dominated_mask(self._signs * objectives, len(self))
        self.decisions = np.vstack([self.decisions, xs])[keep]
        self.objectives = objectives[keep]
        return int(keep[keep.size - len(objs):].sum())
