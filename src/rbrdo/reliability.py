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

Many searches run as one lockstep batch whose rows are independent. A row
leaves the batch when it stops (converged, stalled, dead, non-finite or at
the iteration cap): whenever half of the current width has stopped, the
batch is compacted to its live rows, so a batch costs its row-iterations,
not its size times its slowest row. The Armijo ladder inside each step
drops its accepted rows by the same rule, so a step costs its pending
trials, not its width times the longest ladder. Each step's fresh arrays
become the batch state, with the stopped rows patched in, and d.d is
computed once per step.

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


def _compact(keep, *arrays):
    """The rows of ``arrays`` where ``keep`` holds, once they are few enough.

    The lockstep searches, the engine and its Armijo ladder, drop their
    finished rows by this one rule: once at most half of the current width
    is kept. Returns None while more than half is kept, else the kept
    positions and each array gathered to them, in the same row order.
    Successive compactions at least halve the width, so the gathers of one
    search, or of one ladder, cost at most twice its first width.
    """
    if np.count_nonzero(keep) > keep.size // 2:
        return None
    pos = np.flatnonzero(keep)
    return pos, [np.take(a, pos, axis=0) for a in arrays]


def _ray_point(u, d, at, t, out):
    """u - t d into ``out``, over the rows ``at`` of ``d`` (None: all).

    ``u`` holds only those rows. The rows of ``d`` are taken straight into
    ``out``, so the ladder keeps no gathered copy of ``d``.
    """
    # mode='clip' writes straight into out ('raise' buffers); at is valid
    d = d if at is None else np.take(d, at, axis=0, out=out, mode="clip")
    return np.subtract(u, np.multiply(d, t[:, None], out=out), out=out)


def _armijo_ladder(Gfun, rows, u, d, Gu, A, t, active, alpha_b, s_b,
                   tau, G_ray, trial):
    """:func:`backtracking_line_search` over the active rows of a batch.

    Writes each row's step and G(u - tau d) into ``tau`` and ``G_ray`` and
    returns the number of active rows whose Armijo test stayed unmet.
    ``Gfun(x, rows)`` is the engine's margin closure and ``rows`` the batch
    indices of the rows of ``u`` (None: the whole batch). The ladder drops
    its accepted rows by the engine's rule (:func:`_compact`), so a round
    costs its pending rows rather than the width. ``trial`` is scratch
    shaped like ``u``. The caller owns the three arrays so that a search
    allocates them once: fresh batch-sized arrays on every step made the
    allocator hand memory back to the system and fault it in again
    (several times the page faults on reactor and benchmark batches). The
    rounding slack accepts trials whose required decrease underflows
    against |G| (flat directions).
    """
    np.copyto(tau, t)
    np.copyto(G_ray, Gu)
    pending = active.copy()
    slack = 4.0 * _ULP * np.abs(Gu)
    # once compacted: the rows' positions in u and their batch indices;
    # their trial points and u rows live in the front of ``trial``
    at, sub, u_at, x = None, rows, u, trial
    with np.errstate(all="ignore"):
        for _ in range(_MAX_HALVINGS):
            if not pending.any():
                break
            kept = _compact(pending, Gu, A, t, slack)
            if kept is not None:
                pos, (Gu, A, t, slack) = kept
                at = pos if at is None else at[pos]
                sub = at if rows is None else rows[at]
                m = at.size
                pending = np.ones(m, dtype=bool)
                x = trial[:m]
                u_at = np.take(u, at, axis=0, out=trial[m:2 * m],
                               mode="clip")
            G_try = Gfun(_ray_point(u_at, d, at, t, x), sub)
            ok = G_try <= Gu - alpha_b * t * A + slack
            newly = ok & pending
            dst = newly if at is None else at[newly]
            tau[dst] = t[newly]
            G_ray[dst] = G_try[newly]
            pending &= ~ok
            t = np.where(pending, t * s_b, t)
        stuck = np.count_nonzero(pending)
        if stuck:
            dst = pending if at is None else at[pending]
            tau[dst] = t[pending]
            G_ray[dst] = Gfun(_ray_point(u_at, d, at, t, x), sub)[pending]
            log.debug("Armijo condition unmet on %d rows after %d halvings",
                      stuck, _MAX_HALVINGS)
    return stuck


def _secant_bound(G_prev, G_ray, tau, A, delta_eta):
    """:func:`second_order_step_bound` per row; ``A`` holds each d.d."""
    den = 2.0 * (G_ray - G_prev + tau * A)
    with np.errstate(divide="ignore", invalid="ignore"):
        tb = tau * tau * A / den
        fallback = ~(np.isfinite(tb) & (tb > 0.0))
        eta = (G_prev - G_ray - tau * A) / A + delta_eta
        t_aug = tau + eta
        tb_fb = t_aug * t_aug * A / (2.0 * (G_ray - G_prev + t_aug * A))
        # exact denominator 2*delta_eta*A; it cancels if |G_ray - G_prev| >> A
        tb_fb = np.where(tb_fb > 0.0, tb_fb, t_aug * t_aug / (2.0 * delta_eta))
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
    unmet = _armijo_ladder(
        lambda trial, rows: np.array([float(G(row)) for row in trial]), None,
        np.asarray(u, dtype=float)[None, :], d[None, :], np.array([Gu]),
        np.array([dd]), np.array([float(t_bar)]), np.ones(1, dtype=bool),
        alpha_b, s_b, tau, g_t, np.empty((1, d.size)))
    if unmet:
        log.warning("Armijo condition not met within %d halvings",
                    _MAX_HALVINGS)
    return float(tau[0]), float(g_t[0]), not unmet


def second_order_step_bound(G_prev, G_curr, d_prev, tau_prev, delta_eta):
    """Secant step-length bound; positive on both branches.

    Fits a quadratic to the previous search ray from (G_prev, gradient,
    G_curr-at-step-tau_prev) and returns the estimated step to its minimum.
    A non-positive estimate signals a non-convex section; the bound then
    comes from the eta-shifted step t_aug, whose denominator is
    2 * delta_eta * d.d in exact arithmetic: where floating point cancels
    it to a non-positive value, the exact t_aug**2 / (2 * delta_eta) is
    used. Open question: the method describes a re-evaluation at t_aug,
    but G_curr is reused, which is what makes that reduction exact.
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


def _fd_gradient(Gfun, u, rows=None, h_scale=1e-6):
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
        grad[:, i] = (Gfun(up, rows) - Gfun(um, rows)) / (2.0 * h)
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

    ``Gfun(u, rows=None)`` maps (w, n) -> (w,) and ``gradfun(u, rows=None)``
    maps (w, n) -> (w, n), where ``rows`` holds the batch indices of the w
    rows of ``u`` (ascending) and None means all b rows in batch order.
    ``beta`` is a scalar or a per-row vector of sphere radii. Rows evolve
    independently and stop when they converge, when their gradient vanishes
    (a constant margin, e.g. at a degenerate design; ``raise_on_dead``
    requests the hard error of the scalar API instead), when they turn
    non-finite, when they stall, or at the iteration budget. Whenever at
    least half of the current width has stopped, the stopped rows are
    written to the batch-order results and the search goes on over the
    live rows only, so the work follows the rows still searching rather
    than the batch size times the slowest row; a batch of one never
    compacts.
    Returns (u, G, iterations, converged, trace) in batch order.
    """
    eps, delta_eta = params.epsilon, params.delta_eta
    alpha_b, s_b = params.alpha_b, params.s_b
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (b,))

    u = _initial_point(beta, n, b, params.initial, rng)
    with np.errstate(all="ignore"):
        Gu = Gfun(u)
        d = gradfun(u)
    A = np.einsum("ij,ij->i", d, d)  # d.d, carried from step to step
    t_bar = np.ones(b)
    cap_scale = np.ones(b)
    rise_count = np.zeros(b, dtype=int)
    stall_count = np.zeros(b, dtype=int)
    active = np.ones(b, dtype=bool)
    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=int)
    tau_buf, G_ray_buf, trial_buf = np.empty(b), np.empty(b), np.empty_like(u)
    tau, G_ray, trial = tau_buf, G_ray_buf, trial_buf
    rows = None  # batch index of each live row, once compacted
    out = None   # batch-order (u, G, iterations, converged), once compacted
    trace = []

    for k in range(params.max_iters):
        if not active.any():
            break
        kept = _compact(active, u, Gu, d, A, beta, t_bar, cap_scale,
                        rise_count, stall_count, iterations)
        if kept is not None:
            # drop the stopped rows: results out, live state in, same order
            pos, state = kept
            if rows is None:
                out = u, Gu, iterations, converged  # already in batch order
                rows = pos
            else:
                gone = ~active
                for dst, src in zip(out, (u, Gu, iterations, converged)):
                    dst[rows[gone]] = src[gone]
                rows = rows[pos]
            (u, Gu, d, A, beta, t_bar, cap_scale, rise_count, stall_count,
             iterations) = state
            converged = np.zeros(pos.size, dtype=bool)
            active = np.ones(pos.size, dtype=bool)
            tau, G_ray, trial = (buf[:pos.size]
                                 for buf in (tau_buf, G_ray_buf, trial_buf))

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

        _armijo_ladder(Gfun, rows, u, d, Gu, A, t, active, alpha_b, s_b,
                       tau, G_ray, trial)

        u_tau = _ray_point(u, d, None, tau, trial)
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
            G_new = Gfun(u_new, rows)
            d_new = gradfun(u_new, rows)
        finite = np.isfinite(G_new) & np.all(np.isfinite(d_new), axis=1)
        bad = active & ~finite
        if bad.any():
            log.debug("non-finite performance value on %d rows", int(bad.sum()))
            active &= ~bad

        err = np.linalg.norm(np.subtract(u_new, u, out=trial), axis=1)

        tb = _secant_bound(Gu, G_ray, tau, A, delta_eta)

        rising = G_new > Gu
        rise_count = np.where(rising, rise_count + 1, 0)
        burst = active & (rise_count >= _OSCILLATION_LIMIT)
        if burst.any():
            cap_scale[burst] *= 0.5
            rise_count[burst] = 0
            log.debug("oscillation guard halved the step cap on %d rows",
                      int(burst.sum()))

        # the step's fresh arrays become the state; stopped rows keep theirs
        stopped = ~active
        np.copyto(u_new, u, where=stopped[:, None])
        np.copyto(G_new, Gu, where=stopped)
        np.copyto(d_new, d, where=stopped[:, None])
        np.copyto(tb, t_bar, where=stopped)
        u, Gu, d, t_bar = u_new, G_new, d_new, tb
        np.copyto(iterations, k + 1, where=active)
        A = np.einsum("ij,ij->i", d, d)

        if record and b == 1 and active[0]:
            trace.append((k, u[0].copy(), float(Gu[0]), float(tau[0]),
                          float(t_bar[0]), float(err[0])))

        # accept convergence only at a tangency point (the gradient's radial
        # component must not point outward), so a projection mapping a
        # truncated step back onto its start cannot stop the search early
        radial = np.einsum("ij,ij->i", d, u)
        small = err < eps
        tangent_ok = radial <= _RADIAL_TOL * beta * np.sqrt(A)
        done = active & small & tangent_ok
        converged |= done
        active &= ~done
        stall_count = np.where(small & ~tangent_ok, stall_count + 1, 0)
        frozen = active & (stall_count >= _STALL_LIMIT)
        if frozen.any():
            log.debug("froze %d numerically stationary rows", int(frozen.sum()))
            active &= ~frozen

    if rows is None:
        return u, Gu, iterations, converged, trace
    for dst, src in zip(out, (u, Gu, iterations, converged)):
        dst[rows] = src
    return (*out, trace)


def _rows_memo(gather):
    """``gather(rows)`` kept for the last ``rows`` object it was called with.

    The engine and its Armijo ladder pass one index array per width, so
    each width gathers once; ``rows=None`` (the whole batch) is gathered up
    front. The old gather is dropped before the next one is made, so a
    ladder's row gathers never sit beside the engine's.
    """
    last = [None, gather(None)]

    def at(rows):
        if rows is not last[0]:
            last[:] = None, None  # the old gather goes before the new one
            last[:] = rows, gather(rows)
        return last[1]
    return at


def make_u_space(pf: PerformanceFunction, mu: np.ndarray, sigma: np.ndarray,
                 d_det: np.ndarray):
    """Wrap a margin function as G(u) = g(d, mu + sigma*u) plus its gradient.

    Both closures take ``(u, rows=None)``: ``rows`` indexes the batch rows
    of ``u`` in the per-row (2-D) ones of ``mu``, ``sigma`` and ``d_det``;
    1-D arrays are shared by every row.
    """
    at = _rows_memo(lambda rows: tuple(
        a if rows is None or np.ndim(a) < 2 else np.take(a, rows, axis=0)
        for a in (mu, sigma, d_det)))

    def Gfun(u, rows=None):
        m, s, d = at(rows)
        return np.asarray(pf.g(d, m + s * u), dtype=float)

    if pf.grad_x is not None:
        def gradfun(u, rows=None):
            m, s, d = at(rows)
            return s * np.asarray(pf.grad_x(d, m + s * u), dtype=float)
    else:
        def gradfun(u, rows=None):
            return _fd_gradient(Gfun, u, rows)

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
