"""Degree-2 polynomial least squares and goodness-of-fit statistics.

Used to quantify the dispersion of a computed Pareto front around its
quadratic trend: fit y ~ a0 + a1 x + a2 x^2 and report the sum of squared
residuals, R^2, adjusted R^2 and the residual-dof root mean squared error
RMS = sqrt(SQR / (n - 3)). Those residuals also hold the front's own
departure from a quadratic; :func:`second_difference_scale` measures the
dispersion about a smooth trend of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, UsageError


@dataclass(frozen=True)
class FitReport:
    coefficients: tuple[float, float, float]  # (a0, a1, a2)
    sqr: float
    r2: float
    r2_adj: float
    rms: float
    n: int

    def __str__(self):
        a0, a1, a2 = self.coefficients
        return (f"n={self.n} a0={a0:.6g} a1={a1:.6g} a2={a2:.6g} "
                f"SQR={self.sqr:.4g} R2={self.r2:.6f} "
                f"R2_adj={self.r2_adj:.6f} RMS={self.rms:.4g}")


def polyfit2(x, y) -> tuple[float, float, float]:
    """Least-squares quadratic coefficients (a0, a1, a2).

    Solves the normal equations of the column-scaled Vandermonde design;
    needs at least three distinct x values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise UsageError("x and y must be equal-length 1-D vectors")
    if x.size < 3:
        raise UsageError("a quadratic fit needs at least 3 points")
    # distinct values of the sorted x, counted without np.unique (which
    # imports numpy.ma)
    if np.count_nonzero(np.diff(np.sort(x))) < 2:
        raise FitError("rank-deficient design: fewer than 3 distinct x values")
    design = np.stack([np.ones_like(x), x, x * x], axis=1)
    scale = np.linalg.norm(design, axis=0)
    a_scaled, *_ = _solve_normal(design / scale, y)
    return tuple((a_scaled / scale).tolist())


def _solve_normal(design, y):
    gram = design.T @ design
    rhs = design.T @ y
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"normal equations are singular: {exc}") from exc
    return coef, gram


def quadratic(coefficients, x):
    a0, a1, a2 = coefficients
    x = np.asarray(x, dtype=float)
    return a0 + a1 * x + a2 * x * x


def goodness_of_fit(x, y, coefficients, population_rms: bool = False) -> FitReport:
    """Fit statistics of the given quadratic on (x, y).

    ``population_rms`` switches RMS from the residual-dof convention
    sqrt(SQR/(n-3)) to sqrt(SQR/n).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise UsageError("x and y must be equal-length 1-D vectors")
    n = x.size
    if n <= 3:
        raise UsageError("adjusted statistics are undefined for n <= 3")
    resid = y - quadratic(coefficients, x)
    sqr = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - sqr / sst if sst > 0.0 else 1.0
    p = 2  # regressor terms beyond the intercept
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 1 - p)
    rms = float(np.sqrt(sqr / (n if population_rms else n - 3)))
    return FitReport(coefficients=tuple(coefficients), sqr=sqr, r2=r2,
                     r2_adj=r2_adj, rms=rms, n=n)


def fit_front(x, y, population_rms: bool = False) -> FitReport:
    """Convenience wrapper: quadratic fit plus its goodness-of-fit report."""
    coef = polyfit2(x, y)
    return goodness_of_fit(x, y, coef, population_rms=population_rms)


def second_difference_scale(x, y) -> float:
    """Residual scale of y about a smooth trend in x, whatever its shape.

    Gasser, Sroka and Jennen-Steinmetz (1986): each interior point against
    the chord of its neighbors, e_i = a_i y_{i-1} + b_i y_{i+1} - y_i with
    a_i = h_i / (h_{i-1} + h_i), b_i = 1 - a_i, h_i = x_{i+1} - x_i; the
    scale is sqrt(sum(e_i^2 / (a_i^2 + b_i^2 + 1)) / (n - 2)), zero on a
    straight line. ``x`` must be sorted ascending.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise UsageError("x and y must be equal-length 1-D vectors")
    if x.size < 3:
        raise UsageError("a second difference needs at least 3 points")
    h = np.diff(x)
    if np.any(h < 0.0):
        raise UsageError("x must be sorted ascending")
    h0, h1 = h[:-1], h[1:]
    span = h0 + h1
    if np.any(span <= 0.0):
        raise FitError("three equal consecutive x values")
    a, b = h1 / span, h0 / span
    e = a * y[:-2] + b * y[2:] - y[1:-1]
    return float(np.sqrt(np.sum(e * e / (a * a + b * b + 1.0))
                         / (x.size - 2)))
