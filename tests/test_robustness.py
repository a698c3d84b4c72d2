import numpy as np
import pytest

from rbrdo import (Bounds, RbrdoProblem, RngStream, RobustnessSpec, Sense,
                   UsageError, build_mo_problem)
from rbrdo.robustness import penalty_objectives, type2_ratio, worst_sample

from oracles import quadratic_effective_mean, uniform_mean_abs_deviation


def design_problem(f, senses=(Sense.MINIMIZE,), dim=1):
    """Constraint-free problem on the box [0, 10]^dim whose objective f(d)
    reads the design alone."""
    def rv(d):
        return (np.zeros(d.shape[:-1] + (1,)), np.ones(d.shape[:-1] + (1,)))

    return RbrdoProblem(name="design", det_bounds=Bounds(np.zeros(dim),
                                                         np.full(dim, 10.0)),
                        beta_bounds=(1.0, 1.0), senses=senses,
                        objective=lambda d, x: f(d), constraints=(),
                        random_vars=rv)


def robust(f, xs, spec, seed, senses=(Sense.MINIMIZE,)):
    """Robust objectives (N, m) and violations (N,) of the designs xs,
    design i sampled with stream ``RngStream(seed).substream(i)``, through
    the population evaluator."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    evaluator, _, _ = build_mo_problem(
        design_problem(f, senses, xs.shape[1]), spec)
    objs, viol = evaluator.evaluate_batch(
        np.column_stack([xs, np.ones(len(xs))]),
        RngStream(seed))
    return objs[:, :-1], viol


def spec_em(delta, samples=50):
    return RobustnessSpec(strategy="effective_mean",
                          delta=np.atleast_1d(delta), samples=samples)


class TestEffectiveMean:
    def test_zero_noise_is_exact(self):
        f = lambda d: np.stack([d[..., 0] ** 3, np.sin(d[..., 0])], axis=-1)
        out, _ = robust(f, [1.7], spec_em(0.0), 0,
                        (Sense.MINIMIZE, Sense.MINIMIZE))
        assert np.array_equal(out[0], f(np.array([1.7])))

    def test_quadratic_closed_form(self):
        # exact mean of x^2 over [x0(1-d), x0(1+d)] is x0^2 (1 + d^2/3)
        out, _ = robust(lambda d: d[..., 0] ** 2, [2.0],
                        spec_em(0.1, samples=10_000), 1)
        expected = quadratic_effective_mean(2.0, 0.1)
        assert abs(expected - 4.013333333333334) < 1e-12
        assert abs(out[0, 0] - expected) / expected < 0.01

    def test_linear_function_close_to_nominal(self):
        out, _ = robust(lambda d: 3.0 * d[..., 0] - 1.0, [2.0],
                        spec_em(0.1, samples=4000), 2)
        assert abs(out[0, 0] - 5.0) < 0.05

    def test_jensen_inequality_for_convex(self):
        f = lambda d: (d[..., 0] - 1.0) ** 2
        out, _ = robust(f, [3.0], spec_em(0.2, samples=10_000), 3)
        assert out[0, 0] >= f(np.array([3.0]))

    def test_seeded_determinism(self):
        f = lambda d: np.stack([d.sum(axis=-1), d.prod(axis=-1)], axis=-1)
        senses = (Sense.MINIMIZE, Sense.MINIMIZE)
        a, _ = robust(f, np.ones(2), spec_em([0.1, 0.1]), 7, senses)
        b, _ = robust(f, np.ones(2), spec_em([0.1, 0.1]), 7, senses)
        assert np.array_equal(a, b)


class TestPenaltyRobust:
    def test_constant_function_unpenalized(self):
        out, _ = robust(lambda d: np.full(d.shape[:-1], 4.0), [2.0],
                        RobustnessSpec(strategy="penalty",
                                       delta=np.array([0.3])), 0)
        assert out[0, 0] == 4.0

    def test_zero_noise_unpenalized(self):
        out, _ = robust(lambda d: d[..., 0] ** 2 + 1.0, [2.0],
                        RobustnessSpec(strategy="penalty",
                                       delta=np.array([0.0])), 0)
        assert out[0, 0] == 5.0

    def test_linear_mean_abs_deviation_oracle(self):
        # f(x) = x around 2 with delta 0.1: P = E|xi - 2| / 2 = 0.05
        out, _ = robust(lambda d: d[..., 0], [2.0],
                        RobustnessSpec(strategy="penalty",
                                       delta=np.array([0.1]), samples=10_000),
                        1)
        expected_pen = uniform_mean_abs_deviation(2.0, 0.2) / 2.0
        assert abs(expected_pen - 0.05) < 1e-15
        assert abs((out[0, 0] - 2.0) - expected_pen) / expected_pen < 0.03

    def test_penalty_worsens_each_sense(self):
        f = lambda d: np.stack([d[..., 0] ** 2, d[..., 0] ** 2], axis=-1)
        senses = (Sense.MINIMIZE, Sense.MAXIMIZE)
        out, _ = robust(f, [1.5], RobustnessSpec(strategy="penalty",
                                                 delta=np.array([0.2]),
                                                 samples=500), 2, senses)
        fx = f(np.array([1.5]))
        assert out[0, 0] >= fx[0]
        assert out[0, 1] <= fx[1]

    def test_division_hazard(self):
        # f(x) = 0 at the nominal design: the penalty's |f(x)| denominator
        _, hazard = penalty_objectives(np.array([[0.1], [-0.1]]),
                                       np.array([0.0]), np.array([1.0]))
        assert hazard


class TestTypeII:
    def test_zero_distance_always_accepted(self):
        ratio, hazard = type2_ratio(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert ratio <= 1e-9 and not hazard

    def test_hand_example(self):
        ratio, _ = type2_ratio(np.array([1.0, 0.0]), np.array([1.2, 0.0]))
        assert not ratio <= 0.1
        ratio, _ = type2_ratio(np.array([1.0, 0.0]), np.array([1.05, 0.0]))
        assert ratio <= 0.1

    def test_division_hazard(self):
        _, hazard = type2_ratio(np.zeros(2), np.ones(2))
        assert hazard

    def test_eta_monotonicity_on_fixed_population(self):
        # a stricter eta never enlarges the accepted count
        rng = np.random.default_rng(5)
        f = lambda d: np.stack([d[..., 0] ** 2 + d[..., 1],
                                d[..., 0] * d[..., 1] + 2.0], axis=-1)
        pop = rng.uniform(0.5, 2.0, size=(40, 2))
        counts = []
        for eta in (0.5, 0.2, 0.1, 0.05, 0.01, 0.005, 0.002, 0.001):
            spec = RobustnessSpec(strategy="type2", delta=np.full(2, 0.2),
                                  samples=100, eta=eta)
            _, viol = robust(f, pop, spec, 0,
                             (Sense.MINIMIZE, Sense.MINIMIZE))
            counts.append(int(np.sum(viol == 0.0)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == 40 and counts[-1] < 40  # the cut bites

    def test_worst_case_aggregator(self):
        # the worst minimized sample sits above the mean: against it the
        # cut rejects a design that the sample mean lets through
        f = lambda d: d[..., 0]
        worst = RobustnessSpec(strategy="type2", delta=np.array([0.2]),
                               samples=64, eta=0.1, worst_case=True)
        mean = RobustnessSpec(strategy="type2", delta=np.array([0.2]),
                              samples=64, eta=0.1)
        _, viol_worst = robust(f, [1.0], worst, 3)
        _, viol_mean = robust(f, [1.0], mean, 3)
        assert viol_worst[0] > 0.0 == viol_mean[0]

    @pytest.mark.parametrize("strategy", ["effective_mean", "penalty"])
    def test_worst_case_is_refused_outside_type2(self, strategy):
        # only the Type II aggregator has a worst-sample form
        with pytest.raises(UsageError, match="Type II"):
            RobustnessSpec(strategy=strategy, delta=np.array([0.1]),
                           worst_case=True)

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            RobustnessSpec(strategy="type2", delta=np.array([0.1]))
        # "none" is not a strategy: zero noise is the one noise-free spelling
        for unknown in ("bogus", "none"):
            with pytest.raises(UsageError, match="unknown robustness"):
                RobustnessSpec(strategy=unknown)
        with pytest.raises(UsageError):
            RobustnessSpec(strategy="effective_mean", delta=np.array([0.1]),
                           samples=0)
        with pytest.raises(UsageError):
            RobustnessSpec(strategy="effective_mean", delta=np.array([0.1]),
                           scheme="bogus")
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(UsageError):
                RobustnessSpec(strategy="effective_mean",
                               delta=np.array([0.1, bad]))
            with pytest.raises(UsageError):
                RobustnessSpec(strategy="type2", delta=np.array([0.1]),
                               eta=bad)


class TestPopulationAggregators:
    """Each aggregator over (N, M, m) equals N calls on (M, m) bit for bit."""

    @staticmethod
    def population(n, m, samples, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(n, samples, m)) * 10.0 ** rng.uniform(
            -3.0, 3.0, size=(n, 1, m))
        f_nominal = vals.mean(axis=1) + rng.normal(size=(n, m))
        f_nominal[::4, 0] = 0.0  # division hazards
        signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        return vals, f_nominal, signs

    @pytest.mark.parametrize("m,samples", [(1, 50), (2, 7), (3, 33)])
    def test_penalty_objectives(self, m, samples):
        vals, f_nominal, signs = self.population(12, m, samples, m)
        objs, hazard = penalty_objectives(vals, f_nominal, signs)
        assert objs.shape == (12, m) and hazard.shape == (12,)
        for i in range(12):
            o, h = penalty_objectives(vals[i], f_nominal[i], signs)
            assert h == hazard[i]
            assert o.tobytes() == objs[i].tobytes()
        assert hazard.any() and not hazard.all()

    @pytest.mark.parametrize("m,samples", [(1, 50), (2, 7), (3, 33)])
    def test_worst_sample(self, m, samples):
        vals, f_nominal, signs = self.population(12, m, samples, 10 + m)
        worst = worst_sample(vals, f_nominal, signs)
        assert worst.shape == (12, m)
        for i in range(12):
            assert worst_sample(vals[i], f_nominal[i], signs).tobytes() == \
                worst[i].tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_type2_ratio(self, m):
        vals, f_nominal, _ = self.population(12, m, 5, 20 + m)
        f_nominal[1] = 0.0  # ||f|| = 0
        f_ref = vals.mean(axis=1)
        ratio, hazard = type2_ratio(f_nominal, f_ref)
        assert ratio.shape == hazard.shape == (12,)
        for i in range(12):
            r, h = type2_ratio(f_nominal[i], f_ref[i])
            assert h == hazard[i]
            assert r.tobytes() == ratio[i].tobytes()
        assert hazard[1]
