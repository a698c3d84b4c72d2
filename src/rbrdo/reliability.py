"""Inverse reliability analysis: the most-probable-point (MPP) search.

The probabilistic constraint P[g(d, X) <= 0] <= Phi(-beta_t) is checked with
the performance measure approach: map the independent normal variables X,
given by their (mu, sigma) arrays, into standard normal space U with
x = mu + sigma*u (:func:`make_u_space`), minimize the performance function
G(u) on the hypersphere ||u|| = beta_t, and declare the constraint satisfied
when the minimum g* stays positive. The minimizer u* is the most probable
point of failure. Only beta_t enters: the failure probability Phi(-beta_t)
itself is never computed.

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
trials, not its width times the longest ladder.

A step allocates little and makes no numpy pass along a row of only n
values. The ladder leaves u - tau d in its ``trial`` buffer for every row;
the step projects that buffer onto the sphere in place, and u and
``trial`` swap roles. One closure gives the margin and the gradient from
one x = mu + sigma*u. The step's margins and gradients become the batch
state, with the stopped rows patched back by index, and d.d is computed
once per step; it also screens the gradients for non-finite components.
Row norms (:func:`_row_norm`) add squares over column views in numpy's
own order, bit for bit ``np.linalg.norm(x, axis=1)``. d.d and d.u stay
``np.einsum`` over the row-major arrays: einsum's per-row order comes from
numpy's SIMD build, so a column-major layout would change their bits.

Performance functions follow the margin convention: positive = safe,
g <= 0 = failure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GradientVanishedError, UsageError

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

    def __post_init__(self):
        if not 0.0 < self.beta_t < math.inf:
            raise UsageError("beta_t must be positive and finite")
        if not 0.0 < self.delta_eta < math.inf:
            raise UsageError("delta_eta must be positive and finite")
        if not 0.0 < self.alpha_b < 1.0:
            raise UsageError("alpha_b must lie in (0, 1)")
        if not 0.0 < self.s_b < 1.0:
            raise UsageError("s_b must lie in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise UsageError("epsilon must be positive and finite")
        if self.max_iters < 1:
            raise UsageError("max_iters must be >= 1")


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
    """Backtracking (Armijo) line search over the active rows of a batch.

    Each row's step tau is the largest of t * s_b**j (j < 60) meeting
    G(u - tau d) <= G(u) - alpha_b * tau * d.d; a row that meets it on no
    trial keeps its last one. Writes each row's step and G(u - tau d) into
    ``tau`` and ``G_ray`` and returns the number of active rows whose
    Armijo test stayed unmet.
    ``Gfun(x, rows)`` is the engine's margin closure and ``rows`` the batch
    indices of the rows of ``u`` (None: the whole batch). The ladder drops
    its accepted rows by the engine's rule (:func:`_compact`), so a round
    costs its pending rows rather than the width. ``trial`` is shaped like
    ``u``; on return it holds u - tau d on every row, the point the engine
    projects. Uncompacted, the last round already left it there (a row's t
    stops changing once it is accepted); after a compaction the ladder
    reused its rows as scratch, so the ray points are recomputed. The
    caller owns the three arrays so that a search allocates them once:
    fresh batch-sized arrays on every step made the allocator hand memory
    back to the system and fault it in again (several times the page
    faults on reactor and benchmark batches). The rounding slack accepts
    trials whose required decrease underflows against |G| (flat
    directions).
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
    if at is not None or not active.any():
        # compacted (or never evaluated): trial holds only the last rows
        _ray_point(u, d, None, tau, trial)
    return stuck


def _secant_bound(G_prev, G_ray, tau, A, delta_eta):
    """Secant step-length bound per row; positive on both branches.

    Fits a quadratic to the previous search ray from (G_prev, gradient d
    with ``A`` = d.d, G_ray at step tau) and returns the step to its
    minimum. A non-positive estimate signals a non-convex section; the
    bound then comes from the eta-shifted step t_aug, whose denominator is
    2 * delta_eta * A in exact arithmetic: where rounding cancels it, the
    exact t_aug**2 / (2 * delta_eta) is used. The shifted step is computed
    on those rows only. Open question: the method re-evaluates G at t_aug;
    reusing G_ray is what makes that exact.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        tb = tau * tau * A / (2.0 * (G_ray - G_prev + tau * A))
        fb = np.flatnonzero(~(np.isfinite(tb) & (tb > 0.0)))
        if fb.size:
            G_prev, G_ray, tau, A = (np.take(v, fb)
                                     for v in (G_prev, G_ray, tau, A))
            eta = (G_prev - G_ray - tau * A) / A + delta_eta
            t_aug = tau + eta
            tb_fb = t_aug * t_aug * A / (2.0 * (G_ray - G_prev + t_aug * A))
            # exact denominator 2*delta_eta*A; it cancels if
            # |G_ray - G_prev| >> A
            tb_fb = np.where(tb_fb > 0.0, tb_fb,
                             t_aug * t_aug / (2.0 * delta_eta))
            if np.ndim(tb) == 0:
                return tb_fb[0]
            tb[fb] = tb_fb
    return tb


def _fd_gradient(Gfun, u, rows=None):
    """Central-difference gradient of G over the last axis of u."""
    u = np.atleast_2d(u)
    b, n = u.shape
    grad = np.empty((b, n))
    for i in range(n):
        h = 1e-6 * np.maximum(1.0, np.abs(u[:, i]))
        up = u.copy()
        um = u.copy()
        up[:, i] += h
        um[:, i] -= h
        grad[:, i] = (Gfun(up, rows) - Gfun(um, rows)) / (2.0 * h)
    return grad


def _pairwise_sum(term, lo, n):
    """Sum of ``term(j)`` for j in [lo, lo + n), in numpy's pairwise order.

    The order of numpy's float add along a contiguous axis: sequential
    below 8 terms, 8 interleaved accumulators up to 128, halves (at a
    multiple of 8) above.
    """
    if n < 8:
        total = term(lo)
        for j in range(lo + 1, lo + n):
            total += term(j)
        return total
    if n <= 128:
        acc = [term(lo + j) for j in range(8)]
        tail = lo + n - n % 8
        for j in range(lo + 8, tail):
            acc[(j - lo) % 8] += term(j)
        total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                 + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        for j in range(tail, lo + n):
            total += term(j)
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(term, lo, half) + _pairwise_sum(term, lo + half,
                                                         n - half)


def _row_norm(x, out=None):
    """The Euclidean norm of each row of x.

    Bit for bit ``np.linalg.norm(x, axis=1)``, which squares and adds
    along each row: here the squares are added over column views in the
    same order, so each numpy call runs over the w rows instead of a row's
    n values. With ``out`` (shaped like x, x itself allowed) the squares
    are taken into it in one pass and summed in place; otherwise column by
    column, and no (w, n) temporary is made.
    """
    if out is None:
        def square(j):
            return x[:, j] * x[:, j]
    else:
        sq = np.multiply(x, x, out=out)

        def square(j):
            return sq[:, j]
    return np.sqrt(_pairwise_sum(square, 0, x.shape[1]))


def _asosl_engine(Gfun, Gdfun, beta, n, b, params: AsoslParams,
                  record: bool = False, raise_on_dead: bool = False):
    """Lockstep MPP search over a batch of b independent problems.

    ``Gfun(u, rows=None)`` maps (w, n) -> (w,) margins and
    ``Gdfun(u, rows=None)`` maps (w, n) -> ((w,) margins, (w, n)
    gradients), where ``rows`` holds the batch indices of the w rows of
    ``u`` (ascending) and None means all b rows in batch order.
    ``beta`` is a scalar or a per-row vector of sphere radii. Rows evolve
    independently and stop when they converge, when their gradient vanishes
    (a constant margin, e.g. at a degenerate design; ``raise_on_dead``
    requests :func:`asosl_mpp`'s hard error instead), when they turn
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

    # every row starts where all coordinates are equal and positive
    u = np.broadcast_to(beta[:, None] / math.sqrt(n), (b, n)).copy()
    with np.errstate(all="ignore"):
        Gu, d = Gdfun(u)
    A = np.einsum("ij,ij->i", d, d)  # d.d, carried from step to step
    t_bar = np.ones(b)
    cap_scale = np.ones(b)
    rise_count = np.zeros(b, dtype=int)
    stall_count = np.zeros(b, dtype=int)
    active = np.ones(b, dtype=bool)
    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=int)
    tau_buf, G_ray_buf = np.empty(b), np.empty(b)
    tau, G_ray, trial = tau_buf, G_ray_buf, np.empty_like(u)
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
            # trial is never the u adopted as results: the other buffer
            tau, G_ray, trial = (tau_buf[:pos.size], G_ray_buf[:pos.size],
                                 trial[:pos.size])

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

        # project u - tau d (left in trial by the ladder) onto the sphere
        norm = _row_norm(trial)
        bad = active & ~np.isfinite(norm)
        if bad.any():
            active &= ~bad
            if not active.any():
                break
        # a step landing on the origin projects to the pole it was heading to
        origin = np.flatnonzero(norm <= 1e-12 * beta)
        if origin.size:
            trial[origin] = -d[origin] / np.sqrt(
                np.maximum(A[origin], _GRAD_EPS))[:, None]
            norm[origin] = 1.0
        trial *= beta[:, None]
        trial /= np.where(norm > 0.0, norm, 1.0)[:, None]
        u_new = trial
        with np.errstate(all="ignore"):
            G_new, d_new = Gdfun(u_new, rows)
        A_new = np.einsum("ij,ij->i", d_new, d_new)
        # d.d is finite exactly when every component is, unless it overflows
        finite = np.isfinite(G_new)
        over = np.flatnonzero(~np.isfinite(A_new))
        if over.size:
            for j in range(n):
                finite[over] &= np.isfinite(d_new[over, j])
        bad = active & ~finite
        if bad.any():
            log.debug("non-finite performance value on %d rows", int(bad.sum()))
            active &= ~bad

        tb = _secant_bound(Gu, G_ray, tau, A, delta_eta)

        rising = G_new > Gu
        rise_count = np.where(rising, rise_count + 1, 0)
        burst = active & (rise_count >= _OSCILLATION_LIMIT)
        if burst.any():
            cap_scale[burst] *= 0.5
            rise_count[burst] = 0
            log.debug("oscillation guard halved the step cap on %d rows",
                      int(burst.sum()))

        # the step's arrays become the state; stopped rows keep theirs, and
        # the old u is the next step's trial buffer
        stopped = np.flatnonzero(~active)
        if stopped.size:
            for new, old in ((u_new, u), (G_new, Gu), (d_new, d),
                             (A_new, A), (tb, t_bar)):
                new[stopped] = old[stopped]
        # the step length, over the old d, which is free now (a stopped
        # row's is 0; only a searching row's is read)
        err = _row_norm(np.subtract(u_new, u, out=d), out=d)
        u, trial = u_new, u
        Gu, d, A, t_bar = G_new, d_new, A_new, tb
        np.copyto(iterations, k + 1, where=active)

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
    """Wrap a margin function as G(u) = g(d, mu + sigma*u).

    Returns the engine's two closures: ``Gfun`` gives G, ``Gdfun`` gives G
    and its U-space gradient sigma * grad_x from one x = mu + sigma*u.
    Both take ``(u, rows=None)``: ``rows`` indexes the batch rows of ``u``
    in the per-row (2-D) ones of ``mu``, ``sigma`` and ``d_det``; 1-D
    arrays are shared by every row.
    """
    at = _rows_memo(lambda rows: tuple(
        a if rows is None or np.ndim(a) < 2 else np.take(a, rows, axis=0)
        for a in (mu, sigma, d_det)))

    def Gfun(u, rows=None):
        m, s, d = at(rows)
        return np.asarray(pf.g(d, m + s * u), dtype=float)

    if pf.grad_x is not None:
        def Gdfun(u, rows=None):
            m, s, d = at(rows)
            x = m + s * u
            G = np.asarray(pf.g(d, x), dtype=float)
            grad = np.asarray(pf.grad_x(d, x), dtype=float)
            del x  # gone before sigma * grad is made
            return G, s * grad
    else:
        def Gdfun(u, rows=None):
            return Gfun(u, rows), _fd_gradient(Gfun, u, rows)

    return Gfun, Gdfun


def asosl_mpp(pf: PerformanceFunction, mu, sigma, d_det,
              params: AsoslParams) -> MppResult:
    """Locate the most probable failure point of one probabilistic constraint.

    ``mu`` and ``sigma`` are the normal variables' vectors at the design
    ``d_det``, as ``RbrdoProblem.random_vars(d_det)`` returns them. One
    engine row with its trace recorded; a vanished gradient raises
    :class:`GradientVanishedError`. ``g_star > 0`` means the constraint
    holds at ``params.beta_t``; a search unconverged within the iteration
    budget returns its last iterate with ``converged=False``.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.ndim != 1 or mu.size < 1 or sigma.shape != mu.shape:
        raise UsageError("mu and sigma must be nonempty vectors of one length")
    if not np.all(sigma > 0.0):
        raise UsageError("standard deviations must be positive")
    u, Gu, iters, conv, trace = _asosl_engine(
        *make_u_space(pf, mu, sigma, np.asarray(d_det, dtype=float)),
        params.beta_t, mu.size, 1, params, record=True,
        raise_on_dead=True)
    u_star = u[0]
    return MppResult(
        u_star=u_star,
        x_star=mu + sigma * u_star,
        g_star=float(Gu[0]),
        iterations=int(iters[0]),
        converged=bool(conv[0]),
        trace=trace,
    )
