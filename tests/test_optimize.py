import numpy as np
import pytest

from rbrdo import (Bounds, DeParams, EvaluatedSolution, ModeParams, Sense,
                   UsageError, crowding_distance, de_minimize,
                   fast_non_dominated_sort, mode_optimize,
                   non_dominated_filter, penalized_fitness)


class Batch:
    """Batch evaluator over a vectorized f(xs) -> (objectives, violations)."""

    def __init__(self, f):
        self.f = f

    def evaluate_batch(self, xs, streams):
        assert len(streams) == len(xs)
        return self.f(xs)


def _sphere(xs):
    return np.einsum("ij,ij->i", xs, xs)[:, None], np.zeros(len(xs))


sphere = Batch(_sphere)


BOX2 = Bounds(np.full(2, -5.0), np.full(2, 5.0))


class TestPenalizedFitness:
    def test_zero_violation_is_identity(self):
        assert penalized_fitness(5.0, 0.0, 1e3) == 5.0

    def test_minimize_adds(self):
        assert penalized_fitness(5.0, 0.2, 1e3, Sense.MINIMIZE) == 205.0

    def test_maximize_subtracts(self):
        assert penalized_fitness(5.0, 0.2, 1e3, Sense.MAXIMIZE) == -195.0

    def test_psi_validation(self):
        with pytest.raises(UsageError):
            penalized_fitness(1.0, 0.0, 0.0)


class TestDeMinimize:
    def test_sphere_convergence_across_seeds(self):
        hits = 0
        for seed in range(10):
            best = de_minimize(sphere, BOX2, DeParams(seed=seed))
            hits += best.objectives[0] <= 1e-6
        assert hits >= 9

    def test_elitism_monotone(self):
        history = []
        de_minimize(sphere, BOX2, DeParams(seed=0, generations=60),
                    history=history)
        best = [h[1] for h in history]
        assert all(a >= b for a, b in zip(best, best[1:]))

    def test_maximize_sense(self):
        f = Batch(lambda xs: (-(xs[:, :1] - 1.0) ** 2, np.zeros(len(xs))))
        best = de_minimize(f, Bounds(np.array([-5.0]), np.array([5.0])),
                           DeParams(seed=2, generations=80),
                           sense=Sense.MAXIMIZE)
        assert abs(best.decision[0] - 1.0) < 1e-3

    def test_penalty_steers_away_from_violations(self):
        def constrained(xs):
            objs, _ = _sphere(xs)
            return objs, np.maximum(0.0, 1.0 - xs[:, 0])  # requires x0 >= 1
        best = de_minimize(Batch(constrained), BOX2, DeParams(seed=1))
        assert abs(best.decision[0] - 1.0) < 1e-3
        assert abs(best.decision[1]) < 1e-3
        assert best.constraint_violation == 0.0

    def test_deterministic_given_seed(self):
        a = de_minimize(sphere, BOX2, DeParams(seed=9, generations=30))
        b = de_minimize(sphere, BOX2, DeParams(seed=9, generations=30))
        assert np.array_equal(a.decision, b.decision)
        assert np.array_equal(a.objectives, b.objectives)

    def test_bounds_respected(self):
        seen = []

        def spy(xs):
            seen.append(xs.copy())
            return _sphere(xs)

        bounds = Bounds(np.array([0.5, -1.0]), np.array([2.0, 1.0]))
        de_minimize(Batch(spy), bounds, DeParams(seed=3, NP=8, generations=25))
        arr = np.vstack(seen)
        assert np.all(arr >= bounds.lower) and np.all(arr <= bounds.upper)

    def test_np_validation(self):
        with pytest.raises(UsageError):
            DeParams(NP=3)


class TestNonDominatedSort:
    def test_identical_rows_single_front(self):
        canon = np.ones((6, 2))
        fronts = fast_non_dominated_sort(canon)
        assert len(fronts) == 1 and len(fronts[0]) == 6

    def test_chain_gives_singletons(self):
        canon = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fronts = fast_non_dominated_sort(canon)
        assert [f.tolist() for f in fronts] == [[0], [1], [2]]

    def test_matches_peeling_oracle(self):
        rng = np.random.default_rng(12)
        canon = rng.normal(size=(200, 2))
        fronts = fast_non_dominated_sort(canon)
        # oracle: repeatedly strip the non-dominated set
        remaining = list(range(200))
        expected = []
        while remaining:
            front = []
            for i in remaining:
                dominated = any(
                    np.all(canon[j] <= canon[i]) and np.any(canon[j] < canon[i])
                    for j in remaining if j != i)
                if not dominated:
                    front.append(i)
            expected.append(front)
            remaining = [i for i in remaining if i not in front]
        assert [sorted(f.tolist()) for f in fronts] == expected

    def test_union_is_population(self):
        rng = np.random.default_rng(1)
        canon = rng.integers(0, 5, size=(80, 3)).astype(float)
        fronts = fast_non_dominated_sort(canon)
        combined = sorted(np.concatenate(fronts).tolist())
        assert combined == list(range(80))


class TestCrowdingDistance:
    def test_pair_is_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[0.0, 1.0],
                                                           [1.0, 0.0]]))))

    def test_collinear_middle_point(self):
        front = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        dist = crowding_distance(front)
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert abs(dist[1] - 2.0) < 1e-14  # one full span per objective

    def test_ordering_matches_recomputation(self):
        rng = np.random.default_rng(8)
        xs = np.sort(rng.uniform(size=12))
        front = np.stack([xs, 1.0 - xs], axis=1)
        dist = crowding_distance(front)
        by_hand = np.zeros(12)
        for j in range(2):
            order = np.argsort(front[:, j])
            span = front[order[-1], j] - front[order[0], j]
            by_hand[order[0]] = by_hand[order[-1]] = np.inf
            for k in range(1, 11):
                by_hand[order[k]] += (front[order[k + 1], j]
                                      - front[order[k - 1], j]) / span
        finite = np.isfinite(dist)
        assert np.array_equal(np.argsort(dist[finite]),
                              np.argsort(by_hand[finite]))


biobjective = Batch(lambda xs: (np.hstack([xs[:, :1] ** 2,
                                            (xs[:, :1] - 2.0) ** 2]),
                                 np.zeros(len(xs))))


class TestModeOptimize:
    SENSES = (Sense.MINIMIZE, Sense.MINIMIZE)
    BOX1 = Bounds(np.array([-5.0]), np.array([5.0]))

    def test_biobjective_front(self):
        params = ModeParams(seed=0, generations=120)
        archive = mode_optimize(biobjective, self.BOX1, self.SENSES, params)
        objs = archive.objective_matrix()
        assert len(archive) >= 30
        # true front spans (0, 4) .. (4, 0) along x in [0, 2]
        assert objs[:, 0].min() <= 0.05
        assert objs[:, 1].min() <= 0.05
        front = non_dominated_filter(list(archive), self.SENSES)
        assert len(front) == len(archive)

    def test_members_inside_bounds(self):
        params = ModeParams(seed=1, generations=30)
        archive = mode_optimize(biobjective, self.BOX1, self.SENSES, params)
        dec = archive.decision_matrix()
        assert np.all(dec >= -5.0) and np.all(dec <= 5.0)

    def test_deterministic(self):
        params = ModeParams(seed=5, generations=25)
        a = mode_optimize(biobjective, self.BOX1, self.SENSES, params)
        b = mode_optimize(biobjective, self.BOX1, self.SENSES, params)
        assert np.array_equal(a.objective_matrix(), b.objective_matrix())

    def test_archive_is_front_of_all_feasible_evaluations(self):
        seen = []

        def spy(xs):
            # x < 0 is infeasible, so the archive must skip those rows
            objs, _ = biobjective.f(xs)
            viol = np.maximum(-xs[:, 0], 0.0)
            seen.extend(zip(xs.copy(), objs, viol))
            return objs, viol

        history = []
        archive = mode_optimize(Batch(spy), self.BOX1, self.SENSES,
                                ModeParams(seed=2, generations=20, NP=10, R=3),
                                history=history)
        feasible = [EvaluatedSolution(x, o, v) for x, o, v in seen if v == 0.0]
        assert 0 < len(feasible) < len(seen)
        front = non_dominated_filter(feasible, self.SENSES)

        def rows(members):
            return sorted(tuple(m.decision) + tuple(m.objectives)
                          for m in members)

        assert rows(archive) == rows(front)
        assert history[-1][2] == len(archive)

    def test_offspring_schedule_shrinks(self):
        history = []
        params = ModeParams(seed=0, generations=30, NP=10, R=4, r=0.8)
        mode_optimize(biobjective, self.BOX1, self.SENSES, params,
                      history=history)
        counts = [h[1] for h in history]
        assert counts[0] == 40
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 10

    def test_needs_two_objectives(self):
        with pytest.raises(UsageError):
            mode_optimize(sphere, BOX2, (Sense.MINIMIZE,), ModeParams())

