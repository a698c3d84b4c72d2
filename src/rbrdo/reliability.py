"""Inverse reliability analysis: U-space transform and the MPP search.

The probabilistic constraint P[g(d, X) <= 0] <= Phi(-beta_t) is checked with
the performance measure approach: transform the independent normal variables
X into standard normal space U, minimize the performance function G(u) on
the hypersphere ||u|| = beta_t, and declare the constraint satisfied when
the minimum g* stays positive. The minimizer u* is the most probable point
of failure.

The sphere-constrained minimization is a steepest-descent iteration with an
adaptive second-order step length: each step length is bounded by a secant
estimate of the curvature along the previous search ray (no Hessian), the
step is taken in full space and the iterate is projected back onto the
sphere. A backtracking (Armijo) line search picks the step within the bound.

Performance functions follow the margin convention: positive = safe,
g <= 0 = failure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GradientVanishedError, UsageError
from .sampling import RngStream

log = logging.getLogger(__name__)

_GRAD_EPS = 1e-30
# Step lengths beyond this many sphere radii no longer change the projected
# point; capping keeps the non-convex fallback from overflowing on flat G.
_STEP_SATURATION = 1e6
_RADIAL_TOL = 1e-12
_MAX_HALVINGS = 60
_OSCILLATION_LIMIT = 5
# Rows whose step stays below epsilon this many times without certified
# tangency are numerically stationary; freeze them instead of burning the
# whole iteration budget.
_STALL_LIMIT = 8
_ULP = np.finfo(float).eps


@dataclass(frozen=True)
class RandomVariableSpec:
    """Independent normal random variable entering a probabilistic constraint."""

    mean: float
    std: float
    distribution: str = "normal"

    def __post_init__(self):
        if self.distribution != "normal":
            raise UsageError("only normal random variables are supported")
        if not self.std > 0.0:
            raise UsageError("standard deviation must be positive")


def rv_arrays(rvs: Sequence[RandomVariableSpec]) -> tuple[np.ndarray, np.ndarray]:
    mu = np.array([rv.mean for rv in rvs], dtype=float)
    sigma = np.array([rv.std for rv in rvs], dtype=float)
    return mu, sigma


def to_standard_normal(x: np.ndarray, rvs: Sequence[RandomVariableSpec]) -> np.ndarray:
    """u_i = (x_i - mu_i) / sigma_i (independent-normal Rosenblatt map)."""
    mu, sigma = rv_arrays(rvs)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != mu.size:
        raise UsageError("x length does not match the random-variable vector")
    return (x - mu) / sigma


def from_standard_normal(u: np.ndarray, rvs: Sequence[RandomVariableSpec]) -> np.ndarray:
    """Exact inverse of :func:`to_standard_normal`."""
    mu, sigma = rv_arrays(rvs)
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != mu.size:
        raise UsageError("u length does not match the random-variable vector")
    return mu + sigma * u


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc; absolute error well below 1e-10."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def failure_probability(beta_t: float) -> float:
    """p_f = Phi(-beta_t), strictly decreasing in the reliability index."""
    if beta_t < 0.0:
        raise UsageError("reliability index must be nonnegative")
    return std_normal_cdf(-beta_t)


@dataclass(frozen=True)
class PerformanceFunction:
    """Margin function g(d, x) with optional analytic x-gradient.

    ``g`` must broadcast over a leading batch axis of ``x`` (and of ``d``
    when d-batches are used): g(d, x[..., :]) -> shape x.shape[:-1]. When
    ``grad_x`` is omitted the U-space gradient falls back to central finite
    differences with step 1e-6 * max(1, |u_i|).
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "g"


@dataclass(frozen=True)
class AsoslParams:
    """Control parameters of the MPP search."""

    beta_t: float
    delta_eta: float = 1.0
    alpha_b: float = 1e-4
    s_b: float = 0.5
    epsilon: float = 1e-6
    max_iters: int = 200
    initial: str = "deterministic"  # or "random": seeded point on the sphere

    def __post_init__(self):
        if not self.beta_t > 0.0:
            raise UsageError("beta_t must be positive")
        if not self.delta_eta > 0.0:
            raise UsageError("delta_eta must be positive")
        if not 0.0 < self.alpha_b < 1.0:
            raise UsageError("alpha_b must lie in (0, 1)")
        if not 0.0 < self.s_b < 1.0:
            raise UsageError("s_b must lie in (0, 1)")
        if not self.epsilon > 0.0:
            raise UsageError("epsilon must be positive")
        if self.max_iters < 1:
            raise UsageError("max_iters must be >= 1")
        if self.initial not in ("deterministic", "random"):
            raise UsageError("initial must be 'deterministic' or 'random'")


@dataclass
class MppResult:
    """Outcome of one MPP search."""

    u_star: np.ndarray
    x_star: np.ndarray
    g_star: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)  # (k, u, G, tau, t_bar, err)


def _armijo_ladder(Gfun, u, d, Gu, A, t, active, alpha_b, s_b,
                   tau, G_ray, trial):
    """:func:`backtracking_line_search` over the active rows of a batch.

    Writes each row's step and G(u - tau d) into ``tau`` and ``G_ray`` and
    returns the accepted mask; ``trial`` is scratch shaped like ``u``. The
    caller owns the three arrays so that a search allocates them once:
    fresh batch-sized arrays on every step made the allocator hand memory
    back to the system and fault it in again (several times the page
    faults on reactor and benchmark batches). The rounding slack accepts
    trials whose required decrease underflows against |G| (flat
    directions).
    """
    accepted = ~active
    tau[:] = t
    G_ray[:] = Gu
    slack = 4.0 * _ULP * np.abs(Gu)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_HALVINGS):
            if accepted.all():
                break
            np.subtract(u, np.multiply(t[:, None], d, out=trial), out=trial)
            G_try = Gfun(trial)
            ok = G_try <= Gu - alpha_b * t * A + slack
            newly = ok & ~accepted
            tau[newly] = t[newly]
            G_ray[newly] = G_try[newly]
            accepted |= ok
            t = np.where(accepted, t, t * s_b)
        if not accepted.all():
            stuck = active & ~accepted
            tau[stuck] = t[stuck]
            np.subtract(u, np.multiply(t[:, None], d, out=trial), out=trial)
            G_ray[stuck] = Gfun(trial)[stuck]
            log.debug("Armijo condition unmet on %d rows after %d halvings",
                      int(stuck.sum()), _MAX_HALVINGS)
    return accepted


def _secant_bound(G_prev, G_ray, tau, A, delta_eta):
    """:func:`second_order_step_bound` per row; ``A`` holds each d.d."""
    den = 2.0 * (G_ray - G_prev + tau * A)
    with np.errstate(divide="ignore", invalid="ignore"):
        tb = tau * tau * A / den
        fallback = ~(np.isfinite(tb) & (tb > 0.0))
        eta = (G_prev - G_ray - tau * A) / A + delta_eta
        t_aug = tau + eta
        tb_fb = t_aug * t_aug * A / (2.0 * (G_ray - G_prev + t_aug * A))
    return np.where(fallback, tb_fb, tb)


def backtracking_line_search(G, u, d, t_bar, alpha_b=1e-4, s_b=0.5, Gu=None):
    """Largest tau in {t_bar * s_b**j} meeting the Armijo decrease test.

    Returns (tau, G(u - tau*d), satisfied). When no trial within 60
    halvings satisfies G(u - tau d) <= G(u) - alpha_b * tau * d.d, the
    last trial is returned with satisfied=False.
    """
    if not t_bar > 0.0:
        raise UsageError("t_bar must be positive")
    d = np.asarray(d, dtype=float)
    dd = float(np.dot(d, d))
    if dd <= 0.0:
        raise UsageError("descent direction must be nonzero")
    if Gu is None:
        Gu = float(G(u))
    tau, g_t = np.empty(1), np.empty(1)
    ok = _armijo_ladder(
        lambda rows: np.array([float(G(row)) for row in rows]),
        np.asarray(u, dtype=float)[None, :], d[None, :], np.array([Gu]),
        np.array([dd]), np.array([float(t_bar)]), np.ones(1, dtype=bool),
        alpha_b, s_b, tau, g_t, np.empty((1, d.size)))
    if not ok[0]:
        log.warning("Armijo condition not met within %d halvings",
                    _MAX_HALVINGS)
    return float(tau[0]), float(g_t[0]), bool(ok[0])


def second_order_step_bound(G_prev, G_curr, d_prev, tau_prev, delta_eta):
    """Secant step-length bound; strictly positive on both branches.

    Fits a quadratic to the previous search ray from (G_prev, gradient,
    G_curr-at-step-tau_prev) and returns the estimated step to its minimum.
    A non-positive estimate signals a non-convex section; the eta-shifted
    re-evaluation then guarantees a positive bound.
    """
    d_prev = np.asarray(d_prev, dtype=float)
    dd = float(np.dot(d_prev, d_prev))
    if dd < _GRAD_EPS:
        raise GradientVanishedError("gradient vanished: MPP search is stationary")
    if not tau_prev > 0.0:
        raise UsageError("tau_prev must be positive")
    G_prev, G_curr, tau_prev = map(np.float64, (G_prev, G_curr, tau_prev))
    return float(_secant_bound(G_prev, G_curr, tau_prev, np.float64(dd),
                               delta_eta))


def _fd_gradient(Gfun, u, h_scale=1e-6):
    """Central-difference gradient of G over the last axis of u."""
    u = np.atleast_2d(u)
    b, n = u.shape
    grad = np.empty((b, n))
    for i in range(n):
        h = h_scale * np.maximum(1.0, np.abs(u[:, i]))
        up = u.copy()
        um = u.copy()
        up[:, i] += h
        um[:, i] -= h
        grad[:, i] = (Gfun(up) - Gfun(um)) / (2.0 * h)
    return grad


def _initial_point(beta, n, b, initial, rng):
    if initial == "random":
        if rng is None:
            raise UsageError("random initial point requires an RngStream")
        v = rng.gen.standard_normal((b, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return beta[:, None] * v
    return np.broadcast_to(beta[:, None] / math.sqrt(n), (b, n)).copy()


def _asosl_engine(Gfun, gradfun, beta, n, b, params: AsoslParams,
                  rng: Optional[RngStream] = None, record: bool = False,
                  raise_on_dead: bool = False):
    """Lockstep MPP search over a batch of b independent problems.

    Gfun maps (b, n) -> (b,), gradfun maps (b, n) -> (b, n); ``beta`` is a
    scalar or a per-row vector of sphere radii. Rows evolve independently;
    finished rows are frozen until all converge or the iteration budget
    runs out. Rows whose gradient vanishes (a constant margin, e.g. at a
    degenerate design) are frozen at their current value unless
    ``raise_on_dead`` requests the hard error of the scalar API.
    Returns (u, G, iterations, converged, trace).
    """
    eps, delta_eta = params.epsilon, params.delta_eta
    alpha_b, s_b = params.alpha_b, params.s_b
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (b,))

    u = _initial_point(beta, n, b, params.initial, rng)
    with np.errstate(all="ignore"):
        Gu = Gfun(u)
        d = gradfun(u)
    t_bar = np.ones(b)
    cap_scale = np.ones(b)
    rise_count = np.zeros(b, dtype=int)
    stall_count = np.zeros(b, dtype=int)
    active = np.ones(b, dtype=bool)
    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=int)
    tau, G_ray, trial = np.empty(b), np.empty(b), np.empty_like(u)
    trace = []

    for k in range(params.max_iters):
        if not active.any():
            break
        A = np.einsum("ij,ij->i", d, d)
        dead = active & (A < _GRAD_EPS)
        if dead.any():
            if raise_on_dead:
                raise GradientVanishedError(
                    "gradient vanished: MPP search is stationary")
            log.debug("gradient vanished on %d batch rows", dead.sum())
            active &= ~dead
            if not active.any():
                break
        cap = (_STEP_SATURATION * np.maximum(beta, 1.0)
               / np.sqrt(np.maximum(A, _GRAD_EPS)))
        t = np.minimum(t_bar, cap * cap_scale)

        _armijo_ladder(Gfun, u, d, Gu, A, t, active, alpha_b, s_b,
                       tau, G_ray, trial)

        u_tau = u - tau[:, None] * d
        norm = np.linalg.norm(u_tau, axis=1)
        bad = active & ~np.isfinite(norm)
        if bad.any():
            active &= ~bad
            if not active.any():
                break
        # a step landing on the origin projects to the pole it was heading to
        origin = norm <= 1e-12 * beta
        if origin.any():
            head = -d / np.sqrt(np.maximum(A, _GRAD_EPS))[:, None]
            u_tau = np.where(origin[:, None], head, u_tau)
            norm = np.where(origin, 1.0, norm)
        safe_norm = np.where(norm > 0.0, norm, 1.0)
        u_new = beta[:, None] * u_tau / safe_norm[:, None]
        with np.errstate(all="ignore"):
            G_new = Gfun(u_new)
            d_new = gradfun(u_new)
        finite = np.isfinite(G_new) & np.all(np.isfinite(d_new), axis=1)
        bad = active & ~finite
        if bad.any():
            log.debug("non-finite performance value on %d rows", int(bad.sum()))
            active &= ~bad

        err = np.linalg.norm(u_new - u, axis=1)

        tb = _secant_bound(Gu, G_ray, tau, A, delta_eta)

        rising = G_new > Gu
        rise_count = np.where(rising, rise_count + 1, 0)
        burst = active & (rise_count >= _OSCILLATION_LIMIT)
        if burst.any():
            cap_scale[burst] *= 0.5
            rise_count[burst] = 0
            log.debug("oscillation guard halved the step cap on %d rows",
                      int(burst.sum()))

        upd = active
        u[upd] = u_new[upd]
        Gu[upd] = G_new[upd]
        d[upd] = d_new[upd]
        t_bar[upd] = tb[upd]
        iterations[upd] = k + 1

        if record and b == 1 and upd[0]:
            trace.append((k, u[0].copy(), float(Gu[0]), float(tau[0]),
                          float(tb[0]), float(err[0])))

        # accept convergence only at a tangency point (the gradient's radial
        # component must not point outward), so a projection mapping a
        # truncated step back onto its start cannot stop the search early
        radial = np.einsum("ij,ij->i", d, u)
        small = err < eps
        tangent_ok = radial <= _RADIAL_TOL * beta * np.sqrt(
            np.einsum("ij,ij->i", d, d))
        done = upd & small & tangent_ok
        converged |= done
        active &= ~done
        stall_count = np.where(small & ~tangent_ok, stall_count + 1, 0)
        frozen = active & (stall_count >= _STALL_LIMIT)
        if frozen.any():
            log.debug("froze %d numerically stationary rows", int(frozen.sum()))
            active &= ~frozen

    return u, Gu, iterations, converged, trace


def make_u_space(pf: PerformanceFunction, mu: np.ndarray, sigma: np.ndarray,
                 d_det: np.ndarray):
    """Wrap a margin function as G(u) = g(d, mu + sigma*u) plus its gradient."""
    def Gfun(u):
        return np.asarray(pf.g(d_det, mu + sigma * u), dtype=float)

    if pf.grad_x is not None:
        def gradfun(u):
            return sigma * np.asarray(pf.grad_x(d_det, mu + sigma * u), dtype=float)
    else:
        def gradfun(u):
            return _fd_gradient(Gfun, u)

    return Gfun, gradfun


def asosl_mpp(pf: PerformanceFunction, rvs: Sequence[RandomVariableSpec],
              d_det, params: AsoslParams, rng: Optional[RngStream] = None,
              record_trace: bool = True) -> MppResult:
    """Locate the most probable failure point of one probabilistic constraint.

    Returns an :class:`MppResult`; ``g_star > 0`` means the constraint is
    satisfied at reliability level ``params.beta_t``. Non-convergence within
    the iteration budget yields ``converged=False`` with the best iterate
    (the caller decides how to penalize).
    """
    if len(rvs) < 1:
        raise UsageError("at least one random variable is required")
    mu, sigma = rv_arrays(rvs)
    d_det = np.asarray(d_det, dtype=float)
    n = mu.size
    Gfun, gradfun = make_u_space(pf, mu, sigma, d_det)
    u, Gu, iters, conv, trace = _asosl_engine(
        Gfun, gradfun, params.beta_t, n, 1, params, rng=rng,
        record=record_trace, raise_on_dead=True)
    u_star = u[0]
    return MppResult(
        u_star=u_star,
        x_star=mu + sigma * u_star,
        g_star=float(Gu[0]),
        iterations=int(iters[0]),
        converged=bool(conv[0]),
        trace=trace,
    )
