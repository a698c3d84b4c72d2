import numpy as np
import pytest

from rbrdo import (Bounds, Dominance, EvaluatedSolution, ParetoArchive, Sense,
                   UsageError, dominates, non_dominated_filter)

MIN2 = (Sense.MINIMIZE, Sense.MINIMIZE)


def sol(*objs, violation=0.0):
    return EvaluatedSolution(decision=np.zeros(1), objectives=np.array(objs),
                             constraint_violation=violation)


def brute_force_front(pop, senses):
    keep = []
    for i, a in enumerate(pop):
        dominated = False
        for j, b in enumerate(pop):
            if i != j and dominates(b, a, senses) is Dominance.A_DOMINATES:
                dominated = True
                break
        if not dominated:
            keep.append(a)
    return keep


class TestBounds:
    def test_validation(self):
        with pytest.raises(UsageError):
            Bounds(np.array([1.0]), np.array([0.0]))
        with pytest.raises(UsageError):
            Bounds(np.array([]), np.array([]))

    def test_clip(self):
        b = Bounds(np.zeros(2), np.ones(2))
        assert np.allclose(b.clip(np.array([-1.0, 2.0])), [0.0, 1.0])


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates(sol(1, 1), sol(2, 2), MIN2) is Dominance.A_DOMINATES

    def test_identical_vectors_do_not_dominate(self):
        assert dominates(sol(1, 1), sol(1, 1), MIN2) is Dominance.NO_DOMINANCE

    def test_trade_off(self):
        assert dominates(sol(1, 3), sol(3, 1), MIN2) is Dominance.NO_DOMINANCE

    def test_equal_cost_higher_reliability_wins(self):
        senses = (Sense.MINIMIZE, Sense.MAXIMIZE)
        a, b = sol(5.0, 2.0), sol(5.0, 1.0)
        assert dominates(a, b, senses) is Dominance.A_DOMINATES
        assert dominates(b, a, senses) is Dominance.B_DOMINATES

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            dominates(sol(1.0), sol(1.0, 2.0), MIN2)

    def test_partial_order_laws(self):
        # irreflexive + asymmetric + transitive over 10^4 random triples
        rng = np.random.default_rng(7)
        objs = rng.integers(0, 4, size=(10_000, 3, 2)).astype(float)
        transitive_checked = 0
        for oa, ob, oc in objs:
            a, b, c = sol(*oa), sol(*ob), sol(*oc)
            assert dominates(a, a, MIN2) is Dominance.NO_DOMINANCE
            ab = dominates(a, b, MIN2)
            if ab is Dominance.A_DOMINATES:
                assert dominates(b, a, MIN2) is Dominance.B_DOMINATES
            if (ab is Dominance.A_DOMINATES
                    and dominates(b, c, MIN2) is Dominance.A_DOMINATES):
                assert dominates(a, c, MIN2) is Dominance.A_DOMINATES
                transitive_checked += 1
        assert transitive_checked > 100

    def test_sense_flip_duality(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            oa, ob = rng.normal(size=(2, 3))
            senses = (Sense.MINIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)
            base = dominates(sol(*oa), sol(*ob), senses)
            for r in range(3):
                flipped = list(senses)
                flipped[r] = (Sense.MAXIMIZE if senses[r] is Sense.MINIMIZE
                              else Sense.MINIMIZE)
                fa, fb = oa.copy(), ob.copy()
                fa[r], fb[r] = -fa[r], -fb[r]
                assert dominates(sol(*fa), sol(*fb), tuple(flipped)) is base


class TestNonDominatedFilter:
    def test_small_example(self):
        pop = [sol(1, 1), sol(2, 2), sol(0, 3)]
        front = non_dominated_filter(pop, MIN2)
        assert {tuple(s.objectives) for s in front} == {(1, 1), (0, 3)}

    def test_singleton(self):
        pop = [sol(7, 7)]
        assert non_dominated_filter(pop, MIN2) == pop

    def test_empty_errors(self):
        with pytest.raises(UsageError):
            non_dominated_filter([], MIN2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        pop = [sol(*row) for row in rng.normal(size=(100, 2))]
        fast = non_dominated_filter(pop, MIN2)
        slow = brute_force_front(pop, MIN2)
        assert {id(s) for s in fast} == {id(s) for s in slow}

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        pop = [sol(*row) for row in rng.integers(0, 5, size=(60, 2))]
        once = non_dominated_filter(pop, MIN2)
        twice = non_dominated_filter(once, MIN2)
        assert {id(s) for s in once} == {id(s) for s in twice}


class TestArchive:
    def test_dominated_insert_is_noop(self):
        archive = ParetoArchive(MIN2)
        archive.insert(sol(1, 1))
        assert not archive.insert(sol(2, 2))
        assert len(archive) == 1

    def test_dominating_insert_evicts(self):
        archive = ParetoArchive(MIN2)
        archive.insert(sol(2, 2))
        archive.insert(sol(3, 0))
        assert archive.insert(sol(1, 1))
        assert {tuple(s.objectives) for s in archive} == {(1, 1), (3, 0)}

    def test_infeasible_rejected(self):
        archive = ParetoArchive(MIN2)
        with pytest.raises(UsageError):
            archive.insert(sol(1, 1, violation=0.5))

    def test_insertion_order_independent(self):
        rng = np.random.default_rng(9)
        pop = [sol(*row) for row in rng.integers(0, 6, size=(40, 2))]
        reference = None
        for perm_seed in range(5):
            order = np.random.default_rng(perm_seed).permutation(len(pop))
            archive = ParetoArchive(MIN2)
            for idx in order:
                archive.insert(pop[idx])
            got = sorted(tuple(s.objectives) for s in archive)
            if reference is None:
                reference = got
            assert got == reference

    def test_sequential_equals_filter(self):
        rng = np.random.default_rng(13)
        pop = [sol(*row) for row in rng.integers(0, 6, size=(50, 2))]
        archive = ParetoArchive(MIN2)
        for s in pop:
            archive.insert(s)
        expected = sorted({tuple(s.objectives)
                           for s in non_dominated_filter(pop, MIN2)})
        assert sorted({tuple(s.objectives) for s in archive}) == expected


class TestEvaluatedSolution:
    def test_feasibility_is_derived(self):
        assert sol(1.0).feasible
        assert not sol(1.0, violation=0.1).feasible

    def test_nonfinite_decision_rejected(self):
        with pytest.raises(UsageError):
            EvaluatedSolution(decision=np.array([np.nan]),
                              objectives=np.array([1.0]))
