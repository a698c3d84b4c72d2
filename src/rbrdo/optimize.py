"""Differential evolution (rand/1/bin) and a MODE-like multi-objective DE.

An evaluator is any object with a method
``evaluate_batch(xs, rng) -> (objectives, violations)``: ``xs`` is the
(n, dim) matrix of one generation's candidates and ``rng`` the
generation's :class:`~rbrdo.sampling.RngStream`. Row i draws from
``rng.substream(i)``, so a candidate's result does not depend on the rows
evaluated with it; evaluators that draw hash their rows' keys in one
``rng.keys`` call, and deterministic ones ignore ``rng``. It returns an
(n, m) objective matrix and an (n,) vector of nonnegative constraint
violations. Constraint handling is by penalization: selection compares
sense-adjusted objectives worsened by ``psi * violation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Bounds, EvaluatedSolution, ParetoArchive, Sense,
                   dominates_rows, sense_signs)
from .errors import UsageError
from .sampling import RngStream, latin_hypercube


@dataclass(frozen=True)
class DeParams:
    """Control parameters for single-objective DE."""

    F: float = 0.5
    CR: float = 0.8
    NP: int = 50
    generations: int = 100
    seed: int = 0
    psi: float = 1e6

    def __post_init__(self):
        if self.NP < 4:
            raise UsageError("rand/1/bin needs NP >= 4")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if not 0.0 < self.F < np.inf:
            raise UsageError("amplification factor F must be finite and "
                             "positive")
        if not 0.0 <= self.CR <= 1.0:
            raise UsageError("crossover probability CR must lie in [0, 1]")
        if self.generations < 1:
            raise UsageError("generations must be >= 1")
        if not 0.0 < self.psi < np.inf:
            raise UsageError("penalty coefficient must be finite and positive")


@dataclass(frozen=True)
class ModeParams(DeParams):
    """DE parameters plus the population-reduction controls.

    The first generation spawns R*NP offspring; the count decays by the
    factor r each generation down to a floor of NP.
    """

    r: float = 0.9
    R: int = 10

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.r <= 1.0:
            raise UsageError("reduction parameter r must lie in (0, 1]")
        if self.R < 1:
            raise UsageError("pseudo-front count R must be >= 1")


def _init_population(bounds: Bounds, NP: int, rng: RngStream) -> np.ndarray:
    u = latin_hypercube(NP, bounds.dim, rng)
    return bounds.lower + u * (bounds.upper - bounds.lower)


def _rand1bin_trials(pop, targets, F, CR, rng: RngStream, bounds: Bounds):
    """One rand/1/bin trial per target index, clipped into the box.

    Each row draws, in turn, a permutation of the population, its
    crossover uniforms and its forced-crossover coordinate; the donors are
    the permutation's first three entries other than the target."""
    NP, n = pop.shape
    targets = np.asarray(targets, dtype=np.int64)
    rows = targets.size
    perm = np.empty((rows, NP), dtype=np.int64)
    perm[...] = np.arange(NP)  # permutation(NP) shuffles arange(NP)
    u = np.empty((rows, n))
    forced = np.empty(rows, dtype=np.int64)
    gen = rng.gen
    for row in range(rows):
        gen.shuffle(perm[row])
        gen.random(out=u[row])
        forced[row] = gen.integers(n)
    # the target sits once in its row; donors step over its position
    at = np.argmax(perm == targets[:, None], axis=1)
    first = np.arange(3)
    a, b, c = np.take_along_axis(
        perm, first + (first >= at[:, None]), axis=1).T
    mutant = pop[a] + F * (pop[b] - pop[c])
    cross = u < CR
    cross[np.arange(rows), forced] = True
    return bounds.clip(np.where(cross, mutant, pop[targets]))


def _evaluate(evaluator, xs, rng: RngStream, generation: int):
    """Evaluate the rows of xs in one batch, row i with stream (1, g, i)."""
    objs, viol = evaluator.evaluate_batch(xs, rng.substream(1, generation))
    return np.asarray(objs, dtype=float), np.asarray(viol, dtype=float)


def de_minimize(evaluator, bounds: Bounds, params: DeParams,
                sense: Sense = Sense.MINIMIZE,
                history=None) -> EvaluatedSolution:
    """Single-objective DE with greedy selection on penalized fitness.

    Returns the best individual of the final population. ``history``, when
    given a list, receives one (generation, best, mean) fitness record per
    generation.
    """
    rng = RngStream(params.seed)
    sign = 1.0 if sense is Sense.MINIMIZE else -1.0
    pop = _init_population(bounds, params.NP, rng.substream(0))
    objs, viol = _evaluate(evaluator, pop, rng, 0)
    if objs.shape[1] != 1:
        raise UsageError("de_minimize needs a scalar objective")
    fit = sign * objs[:, 0] + params.psi * viol

    for g in range(1, params.generations + 1):
        vstream = rng.substream(2, g)
        trials = _rand1bin_trials(pop, range(params.NP), params.F, params.CR,
                                  vstream, bounds)
        t_objs, t_viol = _evaluate(evaluator, trials, rng, g)
        t_fit = sign * t_objs[:, 0] + params.psi * t_viol
        better = t_fit <= fit
        pop[better] = trials[better]
        objs[better] = t_objs[better]
        viol[better] = t_viol[better]
        fit[better] = t_fit[better]
        if history is not None:
            history.append((g, float(fit.min()), float(fit.mean())))

    best = int(np.argmin(fit))
    return EvaluatedSolution(decision=pop[best], objectives=objs[best],
                             constraint_violation=float(viol[best]))


def fast_non_dominated_sort(canon: np.ndarray) -> list[np.ndarray]:
    """Index fronts of an all-minimize objective matrix (front 0 first)."""
    P = canon.shape[0]
    if P == 0:
        raise UsageError("population must be nonempty")
    # dom[i, j]: i dominates j
    dom = dominates_rows(canon[:, None, :], canon[None, :, :])
    n_dom = dom.sum(axis=0)
    fronts = []
    remaining = n_dom.copy()
    assigned = np.zeros(P, dtype=bool)
    current = np.flatnonzero(remaining == 0)
    while current.size:
        fronts.append(current)
        assigned[current] = True
        remaining = remaining - dom[current].sum(axis=0)
        nxt = np.flatnonzero((remaining == 0) & ~assigned)
        current = nxt
    return fronts


def crowding_distance(canon: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of one (non-dominated) front."""
    n, m = canon.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(canon[:, j], kind="stable")
        col = canon[order, j]
        span = col[-1] - col[0]
        dist[order[0]] = dist[order[-1]] = np.inf
        if span > 0.0:
            gaps = (col[2:] - col[:-2]) / span
            dist[order[1:-1]] += gaps
    return dist


def _environmental_selection(canon: np.ndarray, NP: int) -> np.ndarray:
    """Indices of the NP survivors: front by front, crowding on the cut."""
    chosen = []
    for front in fast_non_dominated_sort(canon):
        if len(chosen) + front.size <= NP:
            chosen.extend(front.tolist())
            if len(chosen) == NP:
                break
        else:
            dist = crowding_distance(canon[front])
            order = np.argsort(-dist, kind="stable")
            need = NP - len(chosen)
            chosen.extend(front[order[:need]].tolist())
            break
    return np.array(chosen, dtype=int)


def mode_optimize(evaluator, bounds: Bounds, senses, params: ModeParams,
                  history=None) -> ParetoArchive:
    """MODE-like multi-objective DE.

    DE variation feeds an NSGA-II-style environmental selection over the
    pooled parents and offspring; the offspring count starts at R*NP and
    shrinks by the factor r per generation down to NP. The returned archive
    is the non-dominated set of every feasible evaluation in the run.
    ``history``, when given a list, receives one (generation, offspring,
    archive size) record per generation.
    """
    if len(senses) < 2:
        raise UsageError("mode_optimize needs at least two objectives")
    signs = sense_signs(senses)
    rng = RngStream(params.seed)
    pop = _init_population(bounds, params.NP, rng.substream(0))
    objs, viol = _evaluate(evaluator, pop, rng, 0)
    if objs.shape[1] != len(senses):
        raise UsageError("objective dimension mismatch")

    archive = ParetoArchive(senses, bounds.dim)
    archive.insert(pop[viol == 0.0], objs[viol == 0.0])

    n_off = params.R * params.NP
    for g in range(1, params.generations + 1):
        targets = [i % params.NP for i in range(n_off)]
        vstream = rng.substream(2, g)
        trials = _rand1bin_trials(pop, targets, params.F, params.CR,
                                  vstream, bounds)
        t_objs, t_viol = _evaluate(evaluator, trials, rng, g)
        ok = t_viol == 0.0
        archive.insert(trials[ok], t_objs[ok])

        pool_x = np.vstack([pop, trials])
        pool_o = np.vstack([objs, t_objs])
        pool_v = np.concatenate([viol, t_viol])
        canon = signs * pool_o + params.psi * pool_v[:, None]
        survivors = _environmental_selection(canon, params.NP)
        pop, objs, viol = pool_x[survivors], pool_o[survivors], pool_v[survivors]
        if history is not None:
            history.append((g, n_off, len(archive)))
        n_off = max(params.NP, round(n_off * params.r))
    return archive
