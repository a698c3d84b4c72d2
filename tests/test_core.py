import numpy as np
import pytest

from rbrdo import Bounds, EvaluatedSolution, ParetoArchive, Sense, UsageError
from rbrdo.core import dominates_rows, non_dominated_mask, sense_signs

MIN2 = (Sense.MINIMIZE, Sense.MINIMIZE)


def beats(a, b, senses=MIN2):
    """Whether objective vector a dominates b under ``senses``."""
    s = sense_signs(senses)
    return bool(dominates_rows(s * np.asarray(a, dtype=float),
                               s * np.asarray(b, dtype=float)))


def brute_force_front(objs):
    return [i for i, a in enumerate(objs)
            if not any(beats(b, a) for j, b in enumerate(objs) if j != i)]


def row_by_row(xs, objs, senses):
    """The archive rule one row at a time: a row enters unless a member
    dominates it, and evicts the members it dominates."""
    s = sense_signs(senses)
    members = []
    for x, o in zip(xs, objs):
        if not any(dominates_rows(s * m, s * o) for _, m in members):
            members = [(y, m) for y, m in members
                       if not dominates_rows(s * o, s * m)]
            members.append((x, o))
    return (np.array([y for y, _ in members]),
            np.array([m for _, m in members]))


def insert_rows(archive, objs):
    """Insert the rows of objs one at a time, each with its index as x."""
    for i, o in enumerate(objs):
        archive.insert([[float(i)]], [o])


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
        assert beats((1, 1), (2, 2))

    def test_identical_vectors_do_not_dominate(self):
        assert not beats((1, 1), (1, 1))

    def test_trade_off(self):
        assert not beats((1, 3), (3, 1)) and not beats((3, 1), (1, 3))

    def test_equal_cost_higher_reliability_wins(self):
        senses = (Sense.MINIMIZE, Sense.MAXIMIZE)
        a, b = (5.0, 2.0), (5.0, 1.0)
        assert beats(a, b, senses)
        assert not beats(b, a, senses)

    def test_partial_order_laws(self):
        # irreflexive + asymmetric + transitive over 10^4 random triples
        rng = np.random.default_rng(7)
        objs = rng.integers(0, 4, size=(10_000, 3, 2)).astype(float)
        a, b, c = objs[:, 0], objs[:, 1], objs[:, 2]
        assert not dominates_rows(a, a).any()
        ab, bc = dominates_rows(a, b), dominates_rows(b, c)
        assert not (ab & dominates_rows(b, a)).any()
        assert dominates_rows(a, c)[ab & bc].all()
        assert (ab & bc).sum() > 100

    def test_sense_flip_duality(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            oa, ob = rng.normal(size=(2, 3))
            senses = (Sense.MINIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)
            base = beats(oa, ob, senses)
            for r in range(3):
                flipped = list(senses)
                flipped[r] = (Sense.MAXIMIZE if senses[r] is Sense.MINIMIZE
                              else Sense.MINIMIZE)
                fa, fb = oa.copy(), ob.copy()
                fa[r], fb[r] = -fa[r], -fb[r]
                assert beats(fa, fb, tuple(flipped)) is base


class TestNonDominatedFilter:
    def test_small_example(self):
        objs = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
        assert non_dominated_mask(objs).tolist() == [True, False, True]

    def test_singleton(self):
        assert non_dominated_mask(np.array([[7.0, 7.0]])).tolist() == [True]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        objs = rng.normal(size=(100, 2))
        assert (np.flatnonzero(non_dominated_mask(objs)).tolist()
                == brute_force_front(objs))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        objs = rng.integers(0, 5, size=(60, 2)).astype(float)
        once = objs[non_dominated_mask(objs)]
        assert non_dominated_mask(once).all()

    def test_settled_rows_are_not_compared_among_themselves(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            objs = rng.integers(0, 5, size=(30, 2)).astype(float)
            front = objs[non_dominated_mask(objs)]
            both = np.vstack([front, objs])
            assert np.array_equal(non_dominated_mask(both, len(front)),
                                  non_dominated_mask(both))


class TestArchive:
    def test_dominated_insert_is_noop(self):
        archive = ParetoArchive(MIN2, 1)
        archive.insert([[0.0]], [[1, 1]])
        assert archive.insert([[0.0]], [[2, 2]]) == 0
        assert len(archive) == 1

    def test_dominating_insert_evicts(self):
        archive = ParetoArchive(MIN2, 1)
        insert_rows(archive, [[2, 2], [3, 0]])
        assert archive.insert([[2.0]], [[1, 1]]) == 1
        assert archive.objectives.tolist() == [[3, 0], [1, 1]]
        assert archive.decisions.tolist() == [[1.0], [2.0]]

    def test_width_mismatch_refused(self):
        archive = ParetoArchive(MIN2, 1)
        with pytest.raises(UsageError):
            archive.insert([[0.0]], [[1.0]])
        with pytest.raises(UsageError):
            archive.insert([[0.0, 0.0]], [[1.0, 2.0]])
        with pytest.raises(UsageError):
            archive.insert([[np.nan]], [[1.0, 2.0]])
        assert len(archive) == 0

    def test_insertion_order_independent(self):
        rng = np.random.default_rng(9)
        objs = rng.integers(0, 6, size=(40, 2)).astype(float)
        reference = None
        for perm_seed in range(5):
            order = np.random.default_rng(perm_seed).permutation(len(objs))
            archive = ParetoArchive(MIN2, 1)
            insert_rows(archive, objs[order])
            got = sorted(map(tuple, archive.objectives))
            if reference is None:
                reference = got
            assert got == reference

    def test_sequential_equals_filter(self):
        rng = np.random.default_rng(13)
        objs = rng.integers(0, 6, size=(50, 2)).astype(float)
        archive = ParetoArchive(MIN2, 1)
        insert_rows(archive, objs)
        assert np.array_equal(archive.objectives,
                              objs[non_dominated_mask(objs)])

    @pytest.mark.parametrize("senses", [MIN2, (Sense.MINIMIZE, Sense.MINIMIZE,
                                               Sense.MAXIMIZE)])
    def test_batch_insert_equals_row_by_row(self, senses):
        # integer objectives: ties and duplicate rows are common
        rng = np.random.default_rng(21)
        for trial in range(20):
            objs = rng.integers(0, 5, size=(80, len(senses))).astype(float)
            objs[rng.integers(80, size=10)] = objs[rng.integers(80, size=10)]
            xs = rng.normal(size=(80, 2))
            decisions, objectives = row_by_row(xs, objs, senses)
            cuts = np.sort(rng.choice(np.arange(1, 80), size=trial % 6,
                                      replace=False))
            batched = ParetoArchive(senses, 2)
            entered = sum(batched.insert(x, o) for x, o in
                          zip(np.split(xs, cuts), np.split(objs, cuts)))
            assert np.array_equal(batched.objectives, objectives)
            assert np.array_equal(batched.decisions, decisions)
            assert entered >= len(batched)


class TestEvaluatedSolution:
    def test_nonfinite_decision_rejected(self):
        with pytest.raises(UsageError):
            EvaluatedSolution(decision=np.array([np.nan]),
                              objectives=np.array([1.0]))
