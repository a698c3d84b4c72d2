"""Inverse reliability analysis: the most-probable-point (MPP) search.

The probabilistic constraint P[g(d, X) <= 0] <= Phi(-beta_t) is checked with
the performance measure approach: map the independent normal variables X,
given by their (mu, sigma) arrays, into standard normal space U with
x = mu + sigma*u (:func:`make_u_space`), minimize the performance function
G(u) on the hypersphere ||u|| = beta_t, and declare the constraint satisfied
when the minimum g* stays positive. The minimizer u* is the most probable
point of failure. Only beta_t enters: the failure probability Phi(-beta_t)
itself is never computed. A margin declared affine in x has that minimum
in closed form (:func:`affine_floor`), which can prove a row safe without
a search.

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

The search state is coordinate-major: u, d and the ladder's ``trial``
buffer hold one row per coordinate and one column per search (a batch
row), so every per-search broadcast (t, beta, a norm, a stop mask) and
every coordinate access is one contiguous pass. A margin sees only the
k variables it reads (``PerformanceFunction.reads``, all n when it
declares none): the closures hand it x = mu + sigma*u over those
coordinates as the (w, k) transpose of such an array, take back its (w, k)
gradient, and the search runs over those coordinates alone. The margin
does not depend on the others: from their common start beta/sqrt(n) no
step moves them and only the projection rescales them (the origin fix
makes them -0.0), so they stay equal bit for bit and share one state row.
The ladder leaves u - tau d in ``trial`` for every row; the step projects
that buffer onto the sphere in place, and u and ``trial`` swap roles. One
closure gives the margin and the gradient from one x. The step's margins
and gradients become the batch state, with the stopped rows restored
under a mask, and d.d is computed once per step; it also screens the
gradients for non-finite components. Norms (:func:`_row_norm`) add
squares over the coordinate rows in numpy's own pairwise order, the shared
row's at every unread position: bit for bit ``np.linalg.norm(x, axis=1)``
of the full row-major array. d.d and d.u (:func:`_lane_dot`) add products
in ``np.einsum("ij,ij->i")``'s order and skip the unread coordinates' zero
terms, so neither the layout nor the shared row changes a bit. That order
is einsum's on an x86-64 numpy built with the X86_V2 baseline; where
einsum uses wider lanes or a fused multiply-add, these dot products keep
their own order and may differ from einsum's in the last bits.

A narrow batch pays the step's numpy calls on every iteration, so the
step makes few and avoids numpy's Python-level wrappers: the search runs
under one ``np.errstate``, masks are tested with ``np.count_nonzero`` and
indexed with ``.nonzero()[0]``, rows are gathered with ``ndarray.take``,
and the tangency tests run only on steps where some row's step fell below
epsilon.

Performance functions follow the margin convention: positive = safe,
g <= 0 = failure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GradientVanishedError, UsageError

log = logging.getLogger(__name__)

_GRAD_EPS = 1e-30
# Step lengths beyond this many sphere radii no longer change the projected
# point; capping keeps the non-convex fallback from overflowing on flat G.
_STEP_SATURATION = 1e6
# relative tolerance (times beta_t) of the tangency and origin tests
_RADIAL_TOL = 1e-12
_MAX_HALVINGS = 60
_OSCILLATION_LIMIT = 5
# Rows whose step stays below epsilon this many times without certified
# tangency are numerically stationary; freeze them instead of burning the
# whole iteration budget.
_STALL_LIMIT = 8
# the Armijo ladder's rounding slack, per unit of |G|
_SLACK = 4.0 * np.finfo(float).eps
# relative margin of affine_floor's safe test over the engine's rounding
_AFFINE_TOL = 1e-6


@dataclass(frozen=True)
class PerformanceFunction:
    """Margin function g(d, x) with its analytic x-gradient.

    ``g`` must broadcast over a leading batch axis of ``x`` (and of ``d``
    when d-batches are used): g(d, x) -> shape x.shape[:-1], and
    ``grad_x`` -> shape x.shape, the partial derivatives of g in x. The
    U-space gradient of the search is sigma * grad_x.

    ``reads`` lists the random variables the margin reads, a run of
    adjacent columns in increasing order (None: all of them). ``g`` and
    ``grad_x`` see only that window, ``columns`` of the variables: x holds
    its columns alone, in their order, and the MPP search runs over those
    coordinates. It is problem data: a gradient may vanish at a search's
    start by chance, so it cannot be inferred.

    ``affine`` declares g affine in x (its gradient does not depend on x),
    which lets :func:`affine_floor` bound its minimum on the sphere in
    closed form. It is problem data too, for the same reason.
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "g"
    reads: tuple = None
    affine: bool = False

    def __post_init__(self):
        if self.reads is not None and not (
                self.reads and self.reads[0] >= 0 and tuple(self.reads)
                == tuple(range(self.reads[0],
                               self.reads[0] + len(self.reads)))):
            raise UsageError("reads must list a run of adjacent nonnegative "
                             "columns in increasing order")

    @property
    def columns(self) -> slice:
        """The window of the variables that ``g`` and ``grad_x`` see."""
        return (slice(None) if self.reads is None
                else slice(self.reads[0], self.reads[-1] + 1))


@dataclass(frozen=True)
class AsoslParams:
    """Control parameters of the MPP search; the sphere radius beta_t is
    given per search."""

    delta_eta: float = 1.0
    alpha_b: float = 1e-4
    s_b: float = 0.5
    epsilon: float = 1e-6
    max_iters: int = 200

    def __post_init__(self):
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
    positions and each array gathered to them along its last (batch row)
    axis, in the same row order. Successive compactions at least halve the
    width, so the gathers of one search, or of one ladder, cost at most
    twice its first width.
    """
    if np.count_nonzero(keep) > keep.size // 2:
        return None
    pos = keep.nonzero()[0]
    return pos, [a.take(pos, axis=-1) for a in arrays]


def _block(buf, m, i=0):
    """Block ``i`` of (rows, m) arrays in the storage of the C-contiguous
    (rows, w) ``buf``: contiguous, unlike the column slice buf[:, :m]."""
    size = buf.shape[0] * m
    return buf.reshape(-1)[i * size:(i + 1) * size].reshape(-1, m)


def _ray_point(u, d, at, t, out):
    """u - t d into ``out``, over the batch rows ``at`` of ``d`` (None:
    all).

    ``u`` holds only those rows. The rows of ``d`` are taken straight into
    ``out``, so the ladder keeps no gathered copy of ``d``.
    """
    # mode='clip' writes straight into out ('raise' buffers); at is valid
    d = d if at is None else d.take(at, axis=-1, out=out, mode="clip")
    return np.subtract(u, np.multiply(d, t, out=out), out=out)


def _armijo_ladder(Gfun, rows, u, d, Gu, A, t, active, alpha_b, s_b,
                   tau, G_ray, trial):
    """Backtracking (Armijo) line search over the active rows of a batch.

    Each row's step tau is the largest of t * s_b**j (j < 60) meeting
    G(u - tau d) <= G(u) - alpha_b * tau * d.d; a row that meets it on no
    trial keeps its last one. Writes each row's step and G(u - tau d) into
    ``tau`` and ``G_ray`` and returns the number of active rows whose
    Armijo test stayed unmet.
    ``Gfun(x, rows)`` is the engine's margin closure and ``rows`` the batch
    indices of the rows (columns) of ``u`` (None: the whole batch); ``u``
    and ``d`` hold the coordinates the margin reads. The ladder drops its
    accepted rows by the engine's rule (:func:`_compact`), so a round
    costs its pending rows rather than the width. ``trial`` is a
    C-contiguous array shaped like ``u``; on return it holds u - tau d on
    every row, the point the engine projects. Uncompacted, the last round
    already left it there (a row's t stops changing once it is accepted);
    after a compaction the ladder reused its storage as scratch, so the
    ray points are recomputed. The caller owns the three arrays so that a
    search allocates them once: fresh batch-sized arrays on every step
    made the allocator hand memory back to the system and fault it in
    again (several times the page faults on reactor and benchmark
    batches). The rounding slack accepts trials whose required decrease
    underflows against |G| (flat directions).
    """
    np.copyto(tau, t)
    np.copyto(G_ray, Gu)
    pending = active.copy()
    slack = _SLACK * np.abs(Gu)
    # once compacted: the rows' positions in u and their batch indices;
    # their trial points and u rows live in the first two blocks of
    # ``trial``'s storage
    at, sub, u_at, x = None, rows, u, trial
    stuck = 0
    for j in range(_MAX_HALVINGS):
        G_try = Gfun(_ray_point(u_at, d, at, t, x), sub)
        ok = G_try <= Gu - alpha_b * t * A + slack
        newly = ok & pending
        dst = newly if at is None else at[newly]
        if j:  # a first trial's step is in tau already
            tau[dst] = t[newly]
        G_ray[dst] = G_try[newly]
        pending ^= newly
        if not np.count_nonzero(pending):
            break
        t = np.where(pending, t * s_b, t)
        kept = _compact(pending, Gu, A, t, slack)
        if kept is not None:
            pos, (Gu, A, t, slack) = kept
            at = pos if at is None else at[pos]
            sub = at if rows is None else rows[at]
            m = at.size
            pending = np.ones(m, dtype=bool)
            x = _block(trial, m)
            u_at = u.take(at, axis=-1, out=_block(trial, m, 1), mode="clip")
    else:
        stuck = np.count_nonzero(pending)
        dst = pending if at is None else at[pending]
        tau[dst] = t[pending]
        G_ray[dst] = Gfun(_ray_point(u_at, d, at, t, x), sub)[pending]
        log.debug("Armijo condition unmet on %d rows after %d halvings",
                  stuck, _MAX_HALVINGS)
    if at is not None:
        # compacted: trial holds only the last rows
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
    tb = tau * tau * A / (2.0 * (G_ray - G_prev + tau * A))
    fb = (~(np.isfinite(tb) & (tb > 0.0))).nonzero()[0]
    if fb.size:
        G_prev, G_ray, tau, A = (v.take(fb) for v in (G_prev, G_ray, tau, A))
        eta = (G_prev - G_ray - tau * A) / A + delta_eta
        t_aug = tau + eta
        tb_fb = t_aug * t_aug * A / (2.0 * (G_ray - G_prev + t_aug * A))
        # exact denominator 2*delta_eta*A; it cancels if
        # |G_ray - G_prev| >> A
        tb[fb] = np.where(tb_fb > 0.0, tb_fb,
                          t_aug * t_aug / (2.0 * delta_eta))
    return tb


def _pairwise_sum(term, lo, n):
    """Sum of ``term(j)`` for j in [lo, lo + n), in numpy's pairwise order.

    The order of numpy's float add along a contiguous axis: sequential
    below 8 terms, 8 interleaved accumulators up to 128, halves (at a
    multiple of 8) above. Every accumulator starts as a fresh sum, so a
    term is never added into: ``term`` may hand back one array at several
    positions.
    """
    if n < 8:
        total = term(lo)
        if n > 1:
            total = total + term(lo + 1)  # a fresh sum
            for j in range(lo + 2, lo + n):
                total += term(j)
        return total
    if n <= 128:
        tail = lo + n - n % 8
        # an accumulator with a single term is never added into
        acc = [term(j) + term(j + 8) if j + 8 < tail else term(j)
               for j in range(lo, lo + 8)]
        for j in range(lo + 16, tail):
            acc[(j - lo) % 8] += term(j)
        total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                 + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        for j in range(tail, lo + n):
            total += term(j)
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(term, lo, half) + _pairwise_sum(term, lo + half,
                                                         n - half)


def _row_norm(x, slot=None, out=None):
    """The Euclidean norm of each batch row (column) of the coordinate-major
    x.

    Coordinate j of a row is held in row ``slot[j]`` of x (None: row j),
    so one row of x may stand for several coordinates. Bit for bit
    ``np.linalg.norm`` of the full (rows, n) array along its coordinates,
    which squares and adds along each row: here the squares are added over
    the rows of x in the same order, so each numpy call runs over all the
    batch rows instead of one row's n values. The squares are taken in one
    pass, into ``out`` when given (shaped like x, x itself allowed).
    """
    sq = np.multiply(x, x, out=out)
    slot = range(x.shape[0]) if slot is None else slot
    return np.sqrt(_pairwise_sum(lambda j: sq[slot[j]], 0, len(slot)))


def _dot_lanes(pos, n):
    """The summation order of :func:`_lane_dot` over n coordinates, of which
    the rows of its operands hold those at the increasing positions
    ``pos``.

    ``np.einsum("ij,ij->i")``, as built for x86-64 with numpy's X86_V2
    baseline (two float64 lanes, a multiply and an add per term, no fused
    multiply-add), adds a row's products in two lanes, the even and the
    odd coordinates: over blocks of 8 coordinates, whose four pairs are
    added last pair first, then over the remaining pairs in order; the
    lanes are added last. Returns the operand rows of each lane in that
    order; a coordinate outside ``pos`` is skipped.
    """
    row = {p: i for i, p in enumerate(pos)}
    lanes = ([], [])
    blocks = n - n % 8
    for base in range(0, blocks, 8):
        for lane in (0, 1):
            lanes[lane].extend(base + p + lane for p in (6, 4, 2, 0))
    for p in range(blocks, n):
        lanes[p % 2].append(p)
    return tuple([row[p] for p in lane if p in row] for lane in lanes)


def _lane_dot(a, b, lanes):
    """The dot product of each batch row (column) of the coordinate-major
    a and b, bit for bit ``np.einsum("ij,ij->i")`` over the row-major
    arrays.

    ``lanes`` comes from :func:`_dot_lanes`. Skipping a coordinate leaves
    the sum as it is when its product is a zero: einsum's lanes start at
    +0.0 and so never hold -0.0, and a zero added to anything but -0.0
    changes nothing. The products are taken in one pass; only a NaN's sign
    and payload, which numpy's own ufuncs do not fix, may differ.
    """
    prod = np.multiply(a, b)
    sums = []
    for rows in lanes:
        if rows:
            acc = prod[rows[0]]
            for i in rows[1:]:
                np.add(acc, prod[i], out=acc)
            sums.append(acc)
    total = sums[0]
    if len(sums) == 2:
        np.add(total, sums[1], out=total)
    if a is not b:
        # einsum's lanes start at +0.0: a sum of -0.0 terms is +0.0 (a sum
        # of squares never is -0.0)
        np.add(total, 0.0, out=total)
    return total


@np.errstate(all="ignore")
def _asosl_engine(Gfun, Gdfun, beta, n, b, params: AsoslParams,
                  record: bool = False, raise_on_dead: bool = False):
    """Lockstep MPP search over a batch of b independent problems.

    ``n`` is the number of random variables. The closures come from
    :func:`make_u_space`: ``Gfun(u, rows=None)`` maps a coordinate-major
    (k, w) u to (w,) margins and ``Gdfun(u, rows=None)`` to ((w,)
    margins, (k, w) gradients), where the k rows of u are the coordinates
    ``Gdfun.reads`` that the margin reads and ``rows`` holds the batch
    indices of its w columns (ascending; None means all b rows in batch
    order). ``beta`` is a scalar or a per-row vector of sphere radii.
    Rows evolve independently and stop when they converge, when their
    gradient vanishes (a constant margin, e.g. at a degenerate design;
    ``raise_on_dead`` requests :func:`asosl_mpp`'s hard error instead),
    when they turn non-finite, when they stall, or at the iteration
    budget. Whenever at least half of the current width has stopped, the
    stopped rows are written to the batch-order results and the search
    goes on over the live rows only, so the work follows the rows still
    searching rather than the batch size times the slowest row; a batch of
    one never compacts.
    The search runs with numpy's floating-point warnings off: a row's
    non-finite values are screened explicitly, and a stopped row's are
    discarded.
    Returns (u, G, iterations, converged, trace) in batch order, u as a
    (b, n) array.
    """
    eps, delta_eta = params.epsilon, params.delta_eta
    alpha_b, s_b = params.alpha_b, params.s_b
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (b,))
    # per-row constants: the step cap's numerator, and the tolerance of the
    # tangency and origin tests
    beta_cap = _STEP_SATURATION * np.maximum(beta, 1.0)
    tol = _RADIAL_TOL * beta
    # the state rows: the k read coordinates, then one row that every
    # unread coordinate shares; slot[j] is coordinate j's row
    reads = Gdfun.reads
    k = len(reads)
    slot = [reads.index(j) if j in reads else k for j in range(n)]
    lanes = _dot_lanes(reads, n)

    # every row starts where all coordinates are equal and positive
    u = np.broadcast_to(beta / math.sqrt(n), (k + (k < n), b)).copy()
    Gu, d = Gdfun(u)
    A = _lane_dot(d, d, lanes)  # d.d, carried from step to step
    root_A = np.sqrt(A)
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

    for it in range(params.max_iters):
        if not np.count_nonzero(active):
            break
        kept = _compact(active, u, Gu, d, A, root_A, beta, beta_cap, tol,
                        t_bar, cap_scale, rise_count, stall_count, iterations)
        if kept is not None:
            # drop the stopped rows: results out, live state in, same order
            pos, state = kept
            if rows is None:
                out = u, Gu, iterations, converged  # already in batch order
                rows = pos
            else:
                gone = ~active
                for dst, src in zip(out, (u, Gu, iterations, converged)):
                    dst[..., rows[gone]] = src[..., gone]
                rows = rows[pos]
            (u, Gu, d, A, root_A, beta, beta_cap, tol, t_bar, cap_scale,
             rise_count, stall_count, iterations) = state
            converged = np.zeros(pos.size, dtype=bool)
            active = np.ones(pos.size, dtype=bool)
            # trial is never the u adopted as results: the other buffer
            tau, G_ray, trial = (tau_buf[:pos.size], G_ray_buf[:pos.size],
                                 _block(trial, pos.size))

        # each mask of stopping rows is a subset of active: ^= clears it
        dead = active & (A < _GRAD_EPS)
        if np.count_nonzero(dead):
            if raise_on_dead:
                raise GradientVanishedError(
                    "gradient vanished: MPP search is stationary")
            log.debug("gradient vanished on %d batch rows", dead.sum())
            active ^= dead
            if not np.count_nonzero(active):
                break
        # a live row's A is at least _GRAD_EPS: the dead rows just left
        t = np.minimum(t_bar, beta_cap / root_A * cap_scale)

        _armijo_ladder(Gfun, rows, u[:k], d, Gu, A, t, active, alpha_b, s_b,
                       tau, G_ray, trial[:k])
        if k < n:
            # an unread coordinate's step is u itself (a NaN t makes the
            # row's read coordinates, and so its norm, NaN)
            trial[k] = u[k]

        # project u - tau d (left in trial by the ladder) onto the sphere
        norm = _row_norm(trial, slot)
        bad = active & ~np.isfinite(norm)
        if np.count_nonzero(bad):
            active ^= bad
            if not np.count_nonzero(active):
                break
        # a step landing on the origin projects to the pole it was heading to
        origin = (norm <= tol).nonzero()[0]
        if origin.size:
            trial[:k, origin] = -d[:, origin] / np.sqrt(
                np.maximum(A[origin], _GRAD_EPS))
            trial[k:, origin] = -0.0  # -(+0.0) / sqrt(A)
            norm[origin] = 1.0
        # every live norm is now positive and finite (a stopped row's
        # projection is discarded below)
        trial *= beta
        trial /= norm
        u_new = trial
        G_new, d_new = Gdfun(u_new, rows)
        A_new = _lane_dot(d_new, d_new, lanes)
        # G + d.d is finite only where both are, and d.d is finite exactly
        # when every component is, unless it overflows
        if np.count_nonzero(np.isfinite(G_new + A_new)) < A_new.size:
            finite = np.isfinite(G_new)
            over = (~np.isfinite(A_new)).nonzero()[0]
            if over.size:
                for row in d_new[:, over]:
                    finite[over] &= np.isfinite(row)
            bad = active & ~finite
            if np.count_nonzero(bad):
                log.debug("non-finite performance value on %d rows",
                          int(bad.sum()))
                active ^= bad

        tb = _secant_bound(Gu, G_ray, tau, A, delta_eta)

        rising = G_new > Gu
        rise_count = (rise_count + 1) * rising
        burst = active & (rise_count >= _OSCILLATION_LIMIT)
        if np.count_nonzero(burst):
            cap_scale[burst] *= 0.5
            rise_count[burst] = 0
            log.debug("oscillation guard halved the step cap on %d rows",
                      int(burst.sum()))

        # the step's arrays become the state; stopped rows keep theirs, and
        # the old u is the next step's trial buffer
        stopped = ~active
        if np.count_nonzero(stopped):
            for new, old in ((u_new, u), (d_new, d), (G_new, Gu),
                             (A_new, A), (tb, t_bar)):
                np.copyto(new, old, where=stopped)
        # the step length, over the old u, which is free now (a stopped
        # row's is 0; only a searching row's is read)
        err = _row_norm(np.subtract(u_new, u, out=u), slot, out=u)
        u, trial = u_new, u
        Gu, d, A, t_bar = G_new, d_new, A_new, tb
        np.copyto(iterations, it + 1, where=active)

        if record and b == 1 and active[0]:
            trace.append((it, u[slot, 0], float(Gu[0]), float(tau[0]),
                          float(t_bar[0]), float(err[0])))

        root_A = np.sqrt(A)
        # most steps end with no row near a stop: skip the tangency tests
        small = active & (err < eps)
        if not np.count_nonzero(small):
            stall_count.fill(0)
            continue
        # accept convergence only at a tangency point (the gradient's radial
        # component must not point outward), so a projection mapping a
        # truncated step back onto its start cannot stop the search early
        radial = _lane_dot(d, u[:k], lanes)
        tangent_ok = radial <= tol * root_A
        done = small & tangent_ok
        converged |= done
        active ^= done
        stall_count = (stall_count + 1) * (small & ~tangent_ok)
        frozen = active & (stall_count >= _STALL_LIMIT)
        if np.count_nonzero(frozen):
            log.debug("froze %d numerically stationary rows", int(frozen.sum()))
            active ^= frozen

    if rows is not None:
        for dst, src in zip(out, (u, Gu, iterations, converged)):
            dst[..., rows] = src
        u, Gu, iterations, converged = out
    # every coordinate in its own row: u[slot] (a copy) when rows are shared
    return (u if k == n else u[slot]).T, Gu, iterations, converged, trace


def make_u_space(pf: PerformanceFunction, mu: np.ndarray, sigma: np.ndarray,
                 d_det: np.ndarray):
    """Wrap a margin function as G(u) = g(d, mu + sigma*u).

    Returns the engine's two closures: ``Gfun`` gives G, ``Gdfun`` gives G
    and its U-space gradient sigma * grad_x from one x = mu + sigma*u.
    Both take ``(u, rows=None)``. ``u`` is coordinate-major: its first k
    rows hold the coordinates ``pf.reads`` (all n when None), one column
    per search, and the gradient comes back as the (k, w) array of those
    coordinates. ``Gdfun.reads`` is that run of coordinates as a range,
    the one the engine searches. ``rows`` indexes the batch rows of u's
    columns in the per-row arrays.

    The arrays are laid out for the engine here alone: a per-row (2-D)
    ``mu``, ``sigma`` or ``d_det`` becomes a coordinate-major copy of the
    columns ``pf`` sees, and a 1-D one, or a stride-0 broadcast of one, is
    shared by every row. ``pf`` is handed x and d as the (w, k) and
    (w, n_d) transposes of coordinate-major arrays; ``Gdfun`` refuses a
    gradient not shaped like x.

    The engine and its Armijo ladder pass one index array per width, so
    the per-row arrays are gathered once per ``rows`` object, the whole
    batch up front. The old gather is dropped before the next one is
    made, so a ladder's row gathers never sit beside the engine's.
    """
    n = mu.shape[-1]
    if pf.reads is not None and pf.reads[-1] >= n:
        raise UsageError(f"{pf.name} reads column {pf.reads[-1]} of {n}")
    cols = pf.columns
    reads = range(n)[cols]
    k = len(reads)

    mu, sigma, d_det = (a[0] if a.ndim == 2 and a.strides[0] == 0 else a
                        for a in (mu, sigma, d_det))
    per_row = [a.ndim == 2 for a in (mu, sigma, d_det)]
    # mu and sigma over the window, (k, 1) when shared
    arrays = [np.ascontiguousarray(a.T[cols]) if p else a[cols, None]
              for a, p in zip((mu, sigma), per_row)]
    arrays.append(np.ascontiguousarray(d_det.T) if per_row[2] else d_det)

    def gather(rows):
        return tuple(a.take(rows, axis=-1) if rows is not None and p else a
                     for a, p in zip(arrays, per_row))

    last_rows, last = None, gather(None)

    def at(rows):
        nonlocal last_rows, last
        if rows is not last_rows:
            last = None  # the old gather goes before the new one
            last_rows, last = rows, gather(rows)
        return last

    def point(u, rows):
        m, s, d = at(rows)
        x = np.multiply(s, u[:k])
        return np.add(m, x, out=x).T, d.T, s

    def Gfun(u, rows=None):
        x, d, _ = point(u, rows)
        return np.asarray(pf.g(d, x), dtype=float)

    def Gdfun(u, rows=None):
        x, d, s = point(u, rows)
        G = np.asarray(pf.g(d, x), dtype=float)
        grad = _grad_x(pf, d, x)
        del x  # gone before sigma * grad is made
        return G, np.multiply(s, grad.T)

    Gdfun.reads = reads
    return Gfun, Gdfun


def _grad_x(pf: PerformanceFunction, d, x):
    """``pf.grad_x(d, x)``, refused unless it is shaped like x (a k = 1
    margin's n-wide gradient would otherwise broadcast silently)."""
    grad = np.asarray(pf.grad_x(d, x), dtype=float)
    if grad.shape != x.shape:
        raise UsageError(f"{pf.name}: grad_x gave shape {grad.shape} "
                         f"for x of shape {x.shape}")
    return grad


def affine_floor(pf: PerformanceFunction, mu, sigma, d_det, beta):
    """The minimum of an affine margin on each row's sphere, and the rows
    it proves safe.

    With a = g(d, mu) and b = sigma * grad_x(d, mu), an affine margin is
    G(u) = a + b.u, whose minimum on ||u|| = beta is exactly
    a - beta ||b|| (Hasofer and Lind 1974), and no smaller anywhere in
    the ball. ``mu`` and ``sigma`` are the (R, n) arrays of
    ``RbrdoProblem.random_vars``, ``d_det`` the (R, n_d) designs and
    ``beta`` the (R,) radii. Returns (floor (R,), safe (R,)): a row is
    safe when floor > _AFFINE_TOL * (|a| + beta ||b||); a non-finite a or b
    is never safe.

    The tolerance makes the test sound for the engine's g*, whatever the
    search's outcome: g* is G at a point whose read coordinates lie in the
    ball to a few ulps (the start, or a projection onto the sphere), so it
    is at least the floor less the rounding of one evaluation of g, and a
    safe row's search would end with g* > 0. Over a 60-generation
    heat-exchanger run at delta 0.05 (329,817 rows per constraint) the
    floor and the engine's g* differed by at most 5.4e-14 of
    |a| + beta ||b||, far inside the tolerance.
    """
    cols = pf.columns
    x = mu[..., cols]
    a = np.asarray(pf.g(d_det, x), dtype=float)
    b = sigma[..., cols] * _grad_x(pf, d_det, x)
    reach = beta * _row_norm(b.T)
    floor = a - reach
    return floor, floor > _AFFINE_TOL * (np.abs(a) + reach)


def asosl_mpp(pf: PerformanceFunction, mu, sigma, d_det, beta_t: float,
              params: AsoslParams = AsoslParams()) -> MppResult:
    """Locate the most probable failure point of one probabilistic constraint.

    ``mu`` and ``sigma`` are the normal variables' vectors at the design
    ``d_det``, as ``RbrdoProblem.random_vars(d_det)`` returns them; the
    search runs on the sphere of radius ``beta_t``. One engine row with its
    trace recorded; a vanished gradient raises
    :class:`GradientVanishedError`. ``g_star > 0`` means the constraint
    holds at ``beta_t``; a search unconverged within the iteration budget
    returns its last iterate with ``converged=False``.
    """
    if not 0.0 < beta_t < math.inf:
        raise UsageError("beta_t must be positive and finite")
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.ndim != 1 or mu.size < 1 or sigma.shape != mu.shape:
        raise UsageError("mu and sigma must be nonempty vectors of one length")
    if not np.all(sigma > 0.0):
        raise UsageError("standard deviations must be positive")
    u, Gu, iters, conv, trace = _asosl_engine(
        *make_u_space(pf, mu, sigma, np.asarray(d_det, dtype=float)),
        beta_t, mu.size, 1, params, record=True, raise_on_dead=True)
    u_star = u[0]
    return MppResult(
        u_star=u_star,
        x_star=mu + sigma * u_star,
        g_star=float(Gu[0]),
        iterations=int(iters[0]),
        converged=bool(conv[0]),
        trace=trace,
    )
