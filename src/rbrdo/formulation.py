"""The reliability-based robust design multi-objective formulation.

A candidate is a deterministic design vector d with the target reliability
index beta_t appended as its last coordinate. One evaluation:

1. draws M samples in the noise neighborhood of d (the beta coordinate is
   never perturbed),
2. runs the MPP search for every probabilistic constraint (per sample by
   default, once at the nominal d with ``mpp_per_sample=False``), giving
   margins g_i*,
3. aggregates the robust objective per the configured strategy and worsens
   it by psi * sum(max(-g_i*, 0)) with respect to each objective's sense
   (subtracted for maximized objectives),
4. appends beta_t as a final objective to be maximized.

When every g_i* is positive and delta is zero the result is exactly
(F(d), beta_t).

Whole populations evaluate in one lockstep MPP batch (every candidate,
neighborhood sample and constraint becomes one row of a single sphere
search), which is what makes the evolutionary runs tractable; the
single-candidate entry point is the batch of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Bounds, EvaluatedSolution, ParetoArchive, Sense, sense_signs
from .errors import DivisionHazardError, UsageError
from .optimize import ModeParams, mode_optimize
from .reliability import (AsoslParams, PerformanceFunction, _asosl_engine,
                          _rows_memo, make_u_space)
from .robustness import (RobustnessSpec, penalty_objectives, type2_ratio,
                         worst_sample)
from .sampling import NeighborhoodSpec, RngStream, neighborhood_samples

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
    nonnegative violation for d outside the evaluable region.
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
    asosl_defaults: dict = field(default_factory=dict)

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


@dataclass(frozen=True)
class Candidate:
    """A design vector with its target reliability index."""

    d: np.ndarray
    beta_t: float

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "Candidate":
        x = np.asarray(x, dtype=float)
        return cls(d=x[:-1], beta_t=float(x[-1]))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.d, [self.beta_t]])


def _objective_matrix(problem: RbrdoProblem, d: np.ndarray, x: np.ndarray):
    out = np.asarray(problem.objective(d, x), dtype=float)
    m = problem.n_objectives
    if out.ndim == d.ndim - 1:
        out = out[..., None]
    if out.shape[-1] != m:
        raise UsageError("objective returned the wrong number of values")
    return out


def _reject(problem: RbrdoProblem, cand: Candidate, violation: float):
    objectives = np.concatenate([np.zeros(problem.n_objectives), [cand.beta_t]])
    return EvaluatedSolution(decision=cand.as_vector(), objectives=objectives,
                             constraint_violation=float(violation))


@dataclass
class _Prep:
    """Per-candidate state between sampling and the stacked MPP pass."""

    cand: Candidate
    samples: np.ndarray = None        # (M, n_d) rows feeding the objective
    guard_violation: float = 0.0
    noisy: bool = False
    rejected: Optional[EvaluatedSolution] = None
    mpp_slice: slice = None           # rows of the stacked MPP pass
    nominal_slice: slice = None       # optional nominal-reference row


def _prepare(problem: RbrdoProblem, cand: Candidate,
             rng: Optional[RngStream], spec: RobustnessSpec) -> _Prep:
    lo, hi = problem.beta_bounds
    tol = 1e-9
    if not (lo - tol <= cand.beta_t <= hi + tol):
        raise UsageError("candidate reliability index outside beta bounds")
    if not problem.det_bounds.contains(cand.d, atol=1e-9 * (
            1.0 + np.abs(problem.det_bounds.upper).max())):
        raise UsageError("candidate design vector outside bounds")

    prep = _Prep(cand=cand)
    d = cand.d
    if problem.domain_guard is not None:
        v = float(np.asarray(problem.domain_guard(d)))
        if v > 0.0:
            prep.rejected = _reject(problem, cand, v)
            return prep

    delta = spec.delta if spec.delta.size else np.zeros(d.size)
    if delta.size != d.size:
        raise UsageError("noise vector length must match the design dimension")
    delta = np.where(problem.noise_mask, delta, 0.0)
    prep.noisy = spec.strategy != "none" and bool(np.any(delta > 0.0))

    if prep.noisy:
        ns = NeighborhoodSpec(center=d, noise=delta, count=spec.samples,
                              scheme=spec.scheme)
        # perturbed designs are still designs: realizations stay in the box
        samples = problem.det_bounds.clip(neighborhood_samples(ns, rng))
        if problem.domain_guard is not None:
            g_v = np.asarray(problem.domain_guard(samples), dtype=float)
            valid = g_v <= 0.0
            prep.guard_violation = float(np.maximum(g_v, 0.0).mean())
            if not valid.any():
                prep.rejected = _reject(problem, cand,
                                        max(prep.guard_violation, 1.0))
                return prep
            samples = samples[valid]
        prep.samples = samples
    else:
        prep.samples = d[None, :]
    return prep


def _needs_nominal_row(prep: _Prep, problem: RbrdoProblem,
                       mpp_per_sample: bool) -> bool:
    # feasibility is judged at the nominal design, so noisy per-sample
    # blocks always carry one extra nominal row (it also provides the
    # nominal failure-point values the penalty/type2 references need)
    return prep.noisy and mpp_per_sample and bool(problem.constraints)


def _stacked_mpp(problem: RbrdoProblem, rows: np.ndarray, betas: np.ndarray):
    """One lockstep MPP pass: every constraint at every design row.

    ``rows`` is (R, n_d) and ``betas`` (R,). Returns per-row
    (penalty (R,), x_mpp (R, n_s) or None).
    """
    r = rows.shape[0]
    c = len(problem.constraints)
    mu, sigma = problem.random_vars(rows)
    # contiguous copies: every margin and gradient call transforms with them
    mu = np.array(np.broadcast_to(mu, (r, mu.shape[-1])))
    sigma = np.array(np.broadcast_to(sigma, mu.shape))
    params = AsoslParams(beta_t=float(betas.max()), **problem.asosl_defaults)

    beta_all = np.tile(betas, c)
    blocks = [slice(i * r, (i + 1) * r) for i in range(c)]
    spaces = [make_u_space(pf, mu, sigma, rows) for pf in problem.constraints]

    @_rows_memo
    def split(idx):
        # per constraint: its U-space pair, the positions of its stacked
        # rows within idx (ascending) and the design rows they belong to
        if idx is None:
            return [(space, block, None)
                    for space, block in zip(spaces, blocks)]
        cuts = [0, *np.searchsorted(idx, np.arange(1, c) * r), idx.size]
        return [(space, slice(lo, hi), idx[lo:hi] - i * r)
                for i, (space, lo, hi) in enumerate(zip(spaces, cuts, cuts[1:]))
                if hi > lo]

    def Gfun(u, rows=None):
        return np.concatenate([G(u[at], sub)
                               for (G, _), at, sub in split(rows)])

    def gradfun(u, rows=None):
        return np.concatenate([grad(u[at], sub)
                               for (_, grad), at, sub in split(rows)])

    u, g_star, _, conv, _ = _asosl_engine(Gfun, gradfun, beta_all,
                                          mu.shape[1], c * r, params)
    if not conv.all():
        log.debug("MPP search unconverged on %d/%d rows of %s",
                  int((~conv).sum()), c * r, problem.name)
    bad = ~np.isfinite(g_star)
    g_star = np.where(bad, 0.0, g_star)
    per = g_star.reshape(c, r)
    penalty = np.maximum(-per, 0.0).sum(axis=0)
    penalty += bad.reshape(c, r).sum(axis=0) * _MPP_FAILURE_PENALTY
    x_mpp = None
    if problem.objective_at_mpp:
        # constraint i governs random variable i
        x_mpp = np.stack([mu[:, i] + sigma[:, i] * u[block, i]
                          for i, block in enumerate(blocks)], axis=1)
    return penalty, x_mpp


def _finish(problem: RbrdoProblem, spec: RobustnessSpec, prep: _Prep,
            penalty_rows, x_mpp_rows, nominal_penalty, x_nominal,
            mpp_per_sample: bool) -> EvaluatedSolution:
    cand, samples = prep.cand, prep.samples
    d = cand.d

    if problem.constraints:
        if mpp_per_sample:
            penalty = float(penalty_rows.mean())
            x_mpp = x_mpp_rows
        else:
            penalty = float(penalty_rows[0])
            if problem.objective_at_mpp:
                # reuse the nominal failure point scaling on every sample
                mu_n, sig_n = problem.random_vars(d[None, :])
                u_nom = (x_mpp_rows - mu_n) / sig_n
                mu_s, sig_s = problem.random_vars(samples)
                x_mpp = mu_s + sig_s * u_nom
            else:
                x_mpp = None
    else:
        penalty, x_mpp = 0.0, None

    if problem.objective_at_mpp:
        x_eval = x_mpp
    else:
        mu_s, _ = problem.random_vars(samples)
        x_eval = mu_s
    f_samples = _objective_matrix(problem, samples, x_eval)

    # feasibility follows the probabilistic constraint at the nominal
    # design: a candidate whose nominal margins fail at this reliability
    # level is infeasible (barred from archives) on top of the objective
    # worsening; per-sample penalties only press on the objectives
    violation = prep.guard_violation + nominal_penalty
    signs = sense_signs(problem.senses)
    try:
        if spec.strategy in ("none", "effective_mean") or not prep.noisy:
            f_robust = f_samples.mean(axis=0)
        else:
            if problem.objective_at_mpp:
                x_nom_eval = x_nominal[0]
            else:
                mu_d, _ = problem.random_vars(d[None, :])
                x_nom_eval = mu_d[0]
            f_nominal = _objective_matrix(problem, d[None, :],
                                          x_nom_eval[None, :])[0]
            if spec.strategy == "penalty":
                f_robust = penalty_objectives(f_samples, f_nominal, signs)
            else:  # type2
                f_ref = (worst_sample(f_samples, f_nominal, signs)
                         if spec.worst_case else f_samples.mean(axis=0))
                f_robust = f_nominal
                ratio = type2_ratio(f_nominal, f_ref)
                if not ratio <= spec.eta:
                    violation += ratio - spec.eta
    except DivisionHazardError as exc:
        log.info("candidate rejected (%s)", exc)
        return _reject(problem, cand, _MPP_FAILURE_PENALTY)

    objectives = f_robust + signs * problem.psi * penalty
    full = np.concatenate([objectives, [cand.beta_t]])
    return EvaluatedSolution(decision=cand.as_vector(), objectives=full,
                             constraint_violation=violation)


def evaluate_rbrdo_batch(cands: Sequence[Candidate], problem: RbrdoProblem,
                         streams: Sequence[Optional[RngStream]],
                         robustness: Optional[RobustnessSpec] = None,
                         mpp_per_sample: bool = True) -> list[EvaluatedSolution]:
    """Evaluate many candidates with one stacked MPP pass."""
    spec = robustness or RobustnessSpec(strategy="none")
    if len(cands) != len(streams):
        raise UsageError("one rng stream is required per candidate")

    preps = [_prepare(problem, cand, rng, spec)
             for cand, rng in zip(cands, streams)]

    rows = []
    betas = []
    cursor = 0
    if problem.constraints:
        for prep in preps:
            if prep.rejected is not None:
                continue
            block = prep.samples if mpp_per_sample \
                else prep.cand.d[None, :]
            prep.mpp_slice = slice(cursor, cursor + block.shape[0])
            rows.append(block)
            betas.append(np.full(block.shape[0], prep.cand.beta_t))
            cursor += block.shape[0]
            if _needs_nominal_row(prep, problem, mpp_per_sample):
                prep.nominal_slice = slice(cursor, cursor + 1)
                rows.append(prep.cand.d[None, :])
                betas.append(np.array([prep.cand.beta_t]))
                cursor += 1

    if rows:
        all_rows = np.vstack(rows)
        all_betas = np.concatenate(betas)
        penalty_rows, x_rows = _stacked_mpp(problem, all_rows, all_betas)
    else:
        penalty_rows, x_rows = None, None

    out = []
    for prep in preps:
        if prep.rejected is not None:
            out.append(prep.rejected)
            continue
        if problem.constraints:
            pen = penalty_rows[prep.mpp_slice]
            xm = x_rows[prep.mpp_slice] if x_rows is not None else None
            if prep.nominal_slice is not None:
                nom_pen = float(penalty_rows[prep.nominal_slice][0])
                nom_x = (x_rows[prep.nominal_slice]
                         if x_rows is not None else None)
            else:
                # without noise the block's single row is the nominal design
                nom_pen = float(pen[0])
                nom_x = xm
        else:
            pen, xm, nom_pen, nom_x = np.zeros(1), None, 0.0, None
        out.append(_finish(problem, spec, prep, pen, xm, nom_pen, nom_x,
                           mpp_per_sample))
    return out


def evaluate_rbrdo(cand: Candidate, problem: RbrdoProblem,
                   rng: Optional[RngStream],
                   robustness: Optional[RobustnessSpec] = None,
                   mpp_per_sample: bool = True) -> EvaluatedSolution:
    """Evaluate one candidate of the uncertain multi-objective problem."""
    return evaluate_rbrdo_batch([cand], problem, [rng],
                                robustness=robustness,
                                mpp_per_sample=mpp_per_sample)[0]


class RbrdoEvaluator:
    """Optimizer-facing batch evaluator over the (d, beta_t) search space.

    ``evaluate_batch`` evaluates a whole population in one stacked MPP
    pass. With ``fixed_beta`` the search space is d alone and beta_t is
    dropped from the returned objectives.
    """

    def __init__(self, problem: RbrdoProblem,
                 robustness: Optional[RobustnessSpec],
                 mpp_per_sample: bool = True, fixed_beta: float = None):
        self.problem = problem
        self.robustness = robustness
        self.mpp_per_sample = mpp_per_sample
        self.fixed_beta = fixed_beta

    def _candidate(self, x) -> Candidate:
        if self.fixed_beta is None:
            return Candidate.from_vector(x)
        return Candidate(d=np.asarray(x, dtype=float), beta_t=self.fixed_beta)

    def evaluate_batch(self, xs, streams):
        cands = [self._candidate(x) for x in xs]
        sols = evaluate_rbrdo_batch(cands, self.problem, streams,
                                    robustness=self.robustness,
                                    mpp_per_sample=self.mpp_per_sample)
        keep = slice(None) if self.fixed_beta is None else slice(None, -1)
        objs = np.array([s.objectives[keep] for s in sols])
        viol = np.array([s.constraint_violation for s in sols])
        return objs, viol


def build_mo_problem(problem: RbrdoProblem,
                     robustness: Optional[RobustnessSpec] = None,
                     mpp_per_sample: bool = True):
    """Adapter exposing the (d, beta_t) search space to the optimizer.

    Returns (evaluator, bounds, senses) with decision dimension n_d + 1 and
    beta_t appended as a maximized final objective.
    """
    evaluator = RbrdoEvaluator(problem, robustness,
                               mpp_per_sample=mpp_per_sample)
    return evaluator, problem.full_bounds(), problem.full_senses()


def build_rbdo_evaluator(problem: RbrdoProblem, beta_t: float,
                         mpp_per_sample: bool = True):
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
    evaluator = RbrdoEvaluator(problem, RobustnessSpec(strategy="none"),
                               mpp_per_sample=mpp_per_sample,
                               fixed_beta=float(beta_t))
    return evaluator, problem.det_bounds, problem.senses[0]


def _level_seed(seed: int, level: float) -> int:
    key = int(np.float64(level).view(np.uint64))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))
    return int(ss.generate_state(1, np.uint64)[0])


def sweep_robustness(problem: RbrdoProblem, delta_levels: Sequence[float],
                     params: ModeParams, samples: int = 50,
                     strategy: str = "effective_mean",
                     eta: Optional[float] = None, scheme: str = "lhs",
                     worst_case: bool = False,
                     mpp_per_sample: bool = True, histories=None):
    """One MODE run per noise level; archives keyed by level.

    Seeds are derived deterministically from (params.seed, level), so equal
    levels reproduce identical archives and failures in one level do not
    stop the others. Returns (archives, errors) dicts.
    """
    archives: dict[float, ParetoArchive] = {}
    errors: dict[float, Exception] = {}
    for level in delta_levels:
        level = float(level)
        if level < 0.0:
            raise UsageError("noise levels must be nonnegative")
        spec = RobustnessSpec(
            strategy=strategy,
            delta=np.where(problem.noise_mask, level, 0.0),
            samples=samples, eta=eta, scheme=scheme, worst_case=worst_case)
        evaluator, bounds, senses = build_mo_problem(
            problem, robustness=spec, mpp_per_sample=mpp_per_sample)
        run_params = ModeParams(
            F=params.F, CR=params.CR, NP=params.NP,
            generations=params.generations, seed=_level_seed(params.seed, level),
            psi=params.psi, r=params.r, R=params.R)
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
