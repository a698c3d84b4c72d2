"""The reliability-based robust design multi-objective formulation.

A candidate is a deterministic design vector d with the target reliability
index beta_t appended as its last coordinate. One evaluation:

1. draws M samples in the noise neighborhood of d (the beta coordinate is
   never perturbed),
2. runs the MPP search for every probabilistic constraint (per sample by
   default, once at the nominal d with ``RobustnessSpec.mpp_nominal``),
   giving margins g_i*,
3. aggregates the robust objective per the configured strategy and worsens
   it by psi * sum(max(-g_i*, 0)) with respect to each objective's sense
   (subtracted for maximized objectives),
4. appends beta_t as a final objective to be maximized.

When every g_i* is positive and delta is zero the result is exactly
(F(d), beta_t).

A whole population evaluates as arrays. Each candidate draws its samples
from its own stream, all keyed in one pass (the draws are the only
per-candidate loop); the bounds checks, the domain guard, the
neighborhood map, the objective and the robustness aggregators then run
once over all N candidates or all N*M sample rows, and each constraint's
MPP searches run as one lockstep batch (every candidate and sample becomes
one row of that constraint's sphere search). A constraint declared
``affine`` is screened first, unless the objective reads the failure
points: the rows whose closed-form minimum on the sphere is safely
positive take it as g* and leave the batch, with no bit of the result
changed.
Samples the domain guard drops leave candidates with fewer rows; those
aggregate in groups of equal row count, so every candidate's result is
bit-identical to its evaluation alone.
:meth:`RbrdoEvaluator.evaluate_batch` is the one way to score candidates;
a single candidate is a population of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Bounds, ParetoArchive, Sense, sense_signs
from .errors import UsageError
from .optimize import ModeParams, mode_optimize
from .reliability import (AsoslParams, PerformanceFunction, _asosl_engine,
                          affine_floor, make_u_space)
from .robustness import (RobustnessSpec, noise_levels, penalty_objectives,
                         type2_ratio, worst_sample)
from .sampling import RngStream, neighborhood_samples

log = logging.getLogger(__name__)

_MPP_FAILURE_PENALTY = 1e6


@dataclass(frozen=True)
class RbrdoProblem:
    """Complete problem definition for the uncertain multi-objective form.

    ``objective(d, x)`` maps a design point and a random-variable
    realization to the objective value(s); it must broadcast over a leading
    batch axis. ``random_vars(d)`` returns the per-candidate (mu, sigma)
    arrays of the independent normal variables (means may depend on d).
    ``noise_mask`` selects the d coordinates that robustness noise applies
    to. ``objective_at_mpp`` evaluates the objective at the per-constraint
    most probable point values instead of the nominal means (constraint i
    must then govern random variable i). ``domain_guard(d)`` returns a
    nonnegative violation for d outside the evaluable region. ``psi``
    weighs the constraint penalty on the objectives and ``mpp`` holds the
    MPP search controls; the sphere radius is each candidate's beta_t.
    """

    name: str
    det_bounds: Bounds
    beta_bounds: tuple[float, float]
    senses: tuple[Sense, ...]
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constraints: tuple[PerformanceFunction, ...]
    random_vars: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    noise_mask: np.ndarray = None
    objective_at_mpp: bool = False
    domain_guard: Optional[Callable[[np.ndarray], np.ndarray]] = None
    psi: float = 1e6
    mpp: AsoslParams = field(default_factory=AsoslParams)

    def __post_init__(self):
        lo, hi = self.beta_bounds
        if not 0.0 < lo <= hi:
            raise UsageError("beta bounds must satisfy 0 < inf <= sup")
        mask = self.noise_mask
        if mask is None:
            mask = np.ones(self.det_bounds.dim, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.det_bounds.dim,):
            raise UsageError("noise mask length must match the design dimension")
        object.__setattr__(self, "noise_mask", mask)
        if self.objective_at_mpp and len(self.constraints) == 0:
            raise UsageError("objective_at_mpp needs probabilistic constraints")

    @property
    def n_objectives(self) -> int:
        return len(self.senses)

    def full_bounds(self) -> Bounds:
        return self.det_bounds.concat(
            Bounds(np.array([self.beta_bounds[0]]),
                   np.array([self.beta_bounds[1]])))

    def full_senses(self) -> tuple[Sense, ...]:
        return self.senses + (Sense.MAXIMIZE,)

    def check_designs(self, d: np.ndarray):
        """Refuse design rows outside the box, to a rounding tolerance."""
        if not self.det_bounds.contains(d, atol=1e-9 * (
                1.0 + np.abs(self.det_bounds.upper).max())):
            raise UsageError("candidate design vector outside bounds")


def _objective_matrix(problem: RbrdoProblem, d: np.ndarray, x: np.ndarray):
    out = np.asarray(problem.objective(d, x), dtype=float)
    m = problem.n_objectives
    if out.ndim == d.ndim - 1:
        out = out[..., None]
    if out.shape[-1] != m:
        raise UsageError("objective returned the wrong number of values")
    return out


@dataclass
class _Population:
    """A population between sampling and its MPP searches.

    ``live`` indexes the candidates that reached sampling; ``d`` and
    ``beta`` are theirs. ``samples`` holds their objective rows back to
    back, ``counts[k]`` of them for live candidate k: its neighborhood
    samples the domain guard kept, or the design itself when the
    evaluation is noise-free. ``rejected`` is None, or the guard violation
    of every rejected candidate (0 on the rest).
    """

    d: np.ndarray
    beta: np.ndarray
    noisy: bool
    live: np.ndarray
    samples: np.ndarray
    counts: np.ndarray
    guard_violation: np.ndarray
    rejected: Optional[np.ndarray]


def _prepare(problem: RbrdoProblem, d: np.ndarray, beta: np.ndarray,
             rng: RngStream, spec: RobustnessSpec,
             noise: Optional[np.ndarray]) -> _Population:
    """Check the population's bounds, reject the designs the domain guard
    rejects and draw the neighborhood samples of the rest, row i from
    ``rng.substream(i)``; ``noise``: the masked noise vector, or None."""
    lo, hi = problem.beta_bounds
    tol = 1e-9
    if not np.all((lo - tol <= beta) & (beta <= hi + tol)):
        raise UsageError("candidate reliability index outside beta bounds")
    problem.check_designs(d)
    n = d.shape[1]
    guard = problem.domain_guard
    rejected = np.zeros(len(d))
    if guard is not None:
        v = np.asarray(guard(d), dtype=float)
        rejected = np.where(v > 0.0, v, 0.0)
    live = np.flatnonzero(rejected == 0.0)
    samples, counts = d[live], np.ones(live.size, dtype=int)
    guard_violation = np.zeros(live.size)
    if noise is not None and live.size:
        # perturbed designs are still designs: realizations stay in the box
        samples = problem.det_bounds.clip(neighborhood_samples(
            samples, noise, spec.samples, spec.scheme, rng.keys(live)))
        counts = np.full(live.size, spec.samples)
        if guard is not None:
            g_v = np.asarray(guard(samples), dtype=float)
            valid = g_v <= 0.0
            counts = valid.sum(axis=1)
            guard_violation = np.maximum(g_v, 0.0).mean(axis=1)
            empty = counts == 0
            rejected[live[empty]] = np.maximum(guard_violation[empty], 1.0)
            keep = ~empty
            live, counts, guard_violation = (
                live[keep], counts[keep], guard_violation[keep])
            samples = samples[valid]  # the empty candidates have no rows
        samples = samples.reshape(-1, n)
    return _Population(d=d[live], beta=beta[live], noisy=noise is not None,
                       live=live, samples=samples, counts=counts,
                       guard_violation=guard_violation,
                       rejected=rejected if rejected.any() else None)


def _per_candidate(fn, counts: np.ndarray, rows: np.ndarray, *per_cand):
    """``fn(blocks, *per_cand)`` over each candidate's block of ``rows``.

    ``rows`` holds the blocks back to back, ``counts[k]`` rows for
    candidate k; ``fn`` gets a (k, c, ...) stack of equal-size blocks plus
    the matching rows of the per-candidate arrays, once per distinct size.
    A masked or padded reduction would group the terms of a sum
    differently from the block's own, so ragged blocks are never padded.
    Returns what ``fn`` returns, in candidate order.
    """
    if np.all(counts == counts[0]):
        return fn(rows.reshape(counts.size, counts[0], *rows.shape[1:]),
                  *per_cand)
    starts = np.cumsum(counts) - counts
    out = None
    for c in np.flatnonzero(np.bincount(counts)):
        who = np.flatnonzero(counts == c)
        res = fn(rows[starts[who, None] + np.arange(c)],
                 *(a[who] for a in per_cand))
        single = not isinstance(res, tuple)
        res = (res,) if single else res
        if out is None:
            out = [np.empty((counts.size, *r.shape[1:]), r.dtype) for r in res]
        for dst, r in zip(out, res):
            dst[who] = r
    return out[0] if single else tuple(out)


def _block_mean(blocks):
    return blocks.mean(axis=1)


def _stacked_mpp(problem: RbrdoProblem, rows: np.ndarray, betas: np.ndarray):
    """Every constraint's MPP search at every design row: one lockstep
    engine pass per constraint over the rows it has to search.

    ``rows`` is (R, n_d) and ``betas`` (R,). Returns per-row
    (penalty (R,), x_mpp (R, c) or None). Unless the objective needs the
    failure points, an ``affine`` constraint is screened first: the rows
    its closed-form minimum on the sphere proves safe
    (:func:`~rbrdo.reliability.affine_floor`) take that minimum as g* and
    are not searched. A safe row's penalty term is +0.0 either way, and
    engine rows do not depend on their batch, so the penalties keep their
    bits. The name predates the per-constraint passes; it stays because
    tracers patch it.
    """
    r = rows.shape[0]
    mu, sigma = problem.random_vars(rows)
    n = mu.shape[-1]
    c = len(problem.constraints)
    g_star = np.empty((c, r))
    x_mpp = np.empty((r, c)) if problem.objective_at_mpp else None
    for i, pf in enumerate(problem.constraints):
        search, at, m, s = slice(None), rows, mu, sigma
        if pf.affine and x_mpp is None:
            g_star[i], safe = affine_floor(pf, mu, sigma, rows, betas)
            search = (~safe).nonzero()[0]
            log.debug("%s (%s): %d of %d rows screened safe, %d searched",
                      problem.name, pf.name, r - search.size, r, search.size)
            if not search.size:
                continue
            # random_vars keeps a shared (stride-0) mu or sigma shared
            at = rows[search]
            m, s = problem.random_vars(at)
        u, g_star[i, search], _, conv, _ = _asosl_engine(
            *make_u_space(pf, m, s, at), betas[search], n, len(at),
            problem.mpp)
        if not conv.all():
            log.debug("MPP search unconverged on %d/%d searched rows of %s "
                      "(%s)", int((~conv).sum()), conv.size, problem.name,
                      pf.name)
        if x_mpp is not None:
            # constraint i governs random variable i
            x_mpp[:, i] = mu[..., i] + sigma[..., i] * u[:, i]
    bad = ~np.isfinite(g_star)
    g_star[bad] = 0.0
    penalty = np.maximum(-g_star, 0.0).sum(axis=0)
    penalty += bad.sum(axis=0) * _MPP_FAILURE_PENALTY
    return penalty, x_mpp


def _population_mpp(problem: RbrdoProblem, pop: _Population,
                    spec: RobustnessSpec):
    """Penalties and failure points of the live candidates.

    Returns (penalty, nominal_penalty, x_samples, x_nominal): per candidate
    the penalty its objectives carry and the one at its nominal design
    (which judges feasibility), and with ``objective_at_mpp`` the failure
    points of its sample rows and of its nominal design.
    """
    d, beta = pop.d, pop.beta
    if not problem.constraints:
        return np.zeros(d.shape[0]), np.zeros(d.shape[0]), None, None
    if pop.noisy and not spec.mpp_nominal:
        # every sample row, then every nominal row (engine rows are
        # independent, so the layout leaves each row's result as it is)
        s = len(pop.samples)
        pen, x = _stacked_mpp(problem, np.concatenate([pop.samples, d]),
                              np.concatenate([np.repeat(beta, pop.counts),
                                              beta]))
        xs = (None, None) if x is None else (x[:s], x[s:])
        return _per_candidate(_block_mean, pop.counts, pen[:s]), pen[s:], *xs
    # one row per candidate: its nominal design
    penalty, x_nominal = _stacked_mpp(problem, d, beta)
    x_samples = x_nominal
    if x_nominal is not None and pop.noisy:
        # reuse the nominal failure point scaling on every sample
        mu_n, sig_n = problem.random_vars(d)
        u_nom = np.repeat((x_nominal - mu_n) / sig_n, pop.counts, axis=0)
        mu_s, sig_s = problem.random_vars(pop.samples)
        x_samples = mu_s + sig_s * u_nom
    return penalty, penalty, x_samples, x_nominal


def _finish(problem: RbrdoProblem, spec: RobustnessSpec, pop: _Population,
            penalty, nominal_penalty, x_samples, x_nominal):
    """Robust objectives and violations of the live candidates.

    Returns (objectives (K, m), violation (K,), hazard (K,)); hazard marks
    the candidates whose robustness measure hit a division hazard.
    """
    d = pop.d
    x_eval = (x_samples if problem.objective_at_mpp
              else problem.random_vars(pop.samples)[0])
    f_samples = _objective_matrix(problem, pop.samples, x_eval)

    # feasibility follows the probabilistic constraint at the nominal
    # design: a candidate whose nominal margins fail at this reliability
    # level is infeasible (barred from archives) on top of the objective
    # worsening; per-sample penalties only press on the objectives
    violation = pop.guard_violation + nominal_penalty
    hazard = np.zeros(d.shape[0], dtype=bool)
    signs = sense_signs(problem.senses)
    if spec.strategy == "effective_mean" or not pop.noisy:
        f_robust = _per_candidate(_block_mean, pop.counts, f_samples)
    else:
        x_nom = (x_nominal if problem.objective_at_mpp
                 else problem.random_vars(d)[0])
        f_nominal = _objective_matrix(problem, d, x_nom)
        if spec.strategy == "penalty":
            f_robust, hazard = _per_candidate(
                lambda vals, f: penalty_objectives(vals, f, signs),
                pop.counts, f_samples, f_nominal)
        else:  # type2
            if spec.worst_case:
                f_ref = _per_candidate(
                    lambda vals, f: worst_sample(vals, f, signs),
                    pop.counts, f_samples, f_nominal)
            else:
                f_ref = _per_candidate(_block_mean, pop.counts, f_samples)
            f_robust = f_nominal
            ratio, hazard = type2_ratio(f_nominal, f_ref)
            violation = np.where(ratio <= spec.eta, violation,
                                 violation + (ratio - spec.eta))
    return f_robust + signs * problem.psi * penalty[:, None], violation, hazard


class RbrdoEvaluator:
    """Optimizer-facing batch evaluator over the (d, beta_t) search space.

    ``evaluate_batch`` evaluates a whole population as arrays, with one
    MPP engine pass per constraint. With ``fixed_beta`` the search space
    is d alone and beta_t is dropped from the returned objectives. The
    robustness spec (None: the default, noise-free) and its noise vector,
    masked to the problem's noisy coordinates, are resolved once, when the
    evaluator is built; a vector with no positive entry is noise-free.
    """

    def __init__(self, problem: RbrdoProblem,
                 robustness: Optional[RobustnessSpec],
                 fixed_beta: float = None):
        spec = robustness or RobustnessSpec()
        n = problem.det_bounds.dim
        delta = spec.delta if spec.delta.size else np.zeros(n)
        if delta.size != n:
            raise UsageError(
                "noise vector length must match the design dimension")
        noise = np.where(problem.noise_mask, delta, 0.0)
        self.problem = problem
        self.robustness = spec
        # the masked noise vector; None when the evaluation is noise-free
        self.noise = noise if np.any(noise > 0.0) else None
        self.fixed_beta = fixed_beta

    def evaluate_batch(self, xs, rng: RngStream):
        """Objectives (N, m + 1), beta_t last ((N, m) with ``fixed_beta``),
        and violations (N,) of the rows of ``xs``, row i sampled from
        ``rng.substream(i)``.

        Candidates the domain guard or a division hazard rejects get zero
        objectives (beta_t kept) and the guard value or a fixed large
        violation.
        """
        xs = np.asarray(xs, dtype=float)
        if self.fixed_beta is None:
            d, beta = xs[:, :-1], xs[:, -1]
        else:
            d, beta = xs, np.full(len(xs), self.fixed_beta)
        problem, spec = self.problem, self.robustness
        pop = _prepare(problem, d, beta, rng, spec, self.noise)
        m = problem.n_objectives
        objs = np.zeros((len(d), m + 1))
        objs[:, m] = beta
        viol = np.zeros(len(d)) if pop.rejected is None else pop.rejected
        if pop.live.size:
            f, v, hazard = _finish(
                problem, spec, pop,
                *_population_mpp(problem, pop, spec))
            if hazard.any():
                log.info("%d candidates rejected (division hazard)",
                         int(hazard.sum()))
                f[hazard] = 0.0
                v[hazard] = _MPP_FAILURE_PENALTY
            objs[pop.live, :m] = f
            viol[pop.live] = v
        return (objs if self.fixed_beta is None else objs[:, :-1]), viol


def build_mo_problem(problem: RbrdoProblem,
                     robustness: Optional[RobustnessSpec] = None):
    """Adapter exposing the (d, beta_t) search space to the optimizer.

    Returns (evaluator, bounds, senses) with decision dimension n_d + 1 and
    beta_t appended as a maximized final objective.
    """
    evaluator = RbrdoEvaluator(problem, robustness)
    return evaluator, problem.full_bounds(), problem.full_senses()


def build_rbdo_evaluator(problem: RbrdoProblem, beta_t: float):
    """Fixed-reliability single-objective adapter over the d space alone.

    Returns (evaluator, bounds, sense): the classical reliability-based
    formulation that optimizes F(d) with every probabilistic constraint held
    at the given beta_t (no robustness noise).
    """
    lo, hi = problem.beta_bounds
    if not lo <= beta_t <= hi:
        raise UsageError("beta_t outside the problem's beta bounds")
    if problem.n_objectives != 1:
        raise UsageError("the fixed-beta form needs a scalar objective")
    evaluator = RbrdoEvaluator(problem, None, fixed_beta=float(beta_t))
    return evaluator, problem.det_bounds, problem.senses[0]


def _level_seed(seed: int, level: float) -> int:
    key = int(np.float64(level).view(np.uint64))
    return int(RngStream(seed, (key,)).key[0])


def sweep_specs(problem: RbrdoProblem, delta_levels: Sequence[float],
                **settings) -> dict[float, RobustnessSpec]:
    """The robustness spec of each distinct noise level, in first-seen order.

    ``settings`` are the other :class:`RobustnessSpec` fields, shared by
    every level. Raises :class:`UsageError` on any setting a sweep would
    refuse, so a caller can check a sweep before it starts one.
    """
    levels = list(dict.fromkeys(noise_levels(delta_levels).tolist()))
    if not levels:
        raise UsageError("at least one noise level is required")
    return {level: RobustnessSpec(
        delta=np.where(problem.noise_mask, level, 0.0), **settings)
        for level in levels}


def sweep_robustness(problem: RbrdoProblem,
                     specs: dict[float, RobustnessSpec], params: ModeParams,
                     *, histories=None):
    """One MODE run per noise level of ``specs``; archives keyed by level.

    ``specs`` maps each level to its robustness spec, as
    :func:`sweep_specs` returns them (checked, in first-seen order). Seeds
    are derived deterministically from (params.seed, level), so equal
    levels reproduce identical archives and failures in one level do not
    stop the others. Returns (archives, errors) dicts, each in level order.
    """
    archives: dict[float, ParetoArchive] = {}
    errors: dict[float, Exception] = {}
    for level, spec in specs.items():
        evaluator, bounds, senses = build_mo_problem(problem, spec)
        run_params = replace(params, seed=_level_seed(params.seed, level))
        history = None
        if histories is not None:
            history = histories.setdefault(level, [])
        try:
            archives[level] = mode_optimize(evaluator, bounds, senses,
                                            run_params, history=history)
        except Exception as exc:  # keep the other levels running
            log.error("sweep level %g failed: %s", level, exc, exc_info=True)
            errors[level] = exc
    return archives, errors
