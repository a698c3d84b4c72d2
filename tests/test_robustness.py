import numpy as np
import pytest

from rbrdo import (DivisionHazardError, RngStream, RobustnessSpec, Sense,
                   UsageError, effective_mean, penalty_robust, type2_feasible)
from rbrdo.robustness import (penalty_objectives, type2_ratio,
                              type2_reference, worst_sample)

from oracles import quadratic_effective_mean, uniform_mean_abs_deviation


def spec_em(delta, samples=50):
    return RobustnessSpec(strategy="effective_mean",
                          delta=np.atleast_1d(delta), samples=samples)


class TestEffectiveMean:
    def test_zero_noise_is_exact(self):
        f = lambda x: np.array([x[0] ** 3, np.sin(x[0])])
        out = effective_mean(f, np.array([1.7]), spec_em(0.0), RngStream(0))
        assert np.array_equal(out, f(np.array([1.7])))

    def test_quadratic_closed_form(self):
        # exact mean of x^2 over [x0(1-d), x0(1+d)] is x0^2 (1 + d^2/3)
        f = lambda x: x[0] ** 2
        out = effective_mean(f, np.array([2.0]), spec_em(0.1, samples=10_000),
                             RngStream(1))
        expected = quadratic_effective_mean(2.0, 0.1)
        assert abs(expected - 4.013333333333334) < 1e-12
        assert abs(out[0] - expected) / expected < 0.01

    def test_linear_function_close_to_nominal(self):
        f = lambda x: 3.0 * x[0] - 1.0
        out = effective_mean(f, np.array([2.0]), spec_em(0.1, samples=4000),
                             RngStream(2))
        assert abs(out[0] - 5.0) < 0.05

    def test_jensen_inequality_for_convex(self):
        f = lambda x: (x[0] - 1.0) ** 2
        out = effective_mean(f, np.array([3.0]), spec_em(0.2, samples=10_000),
                             RngStream(3))
        assert out[0] >= f(np.array([3.0]))

    def test_seeded_determinism(self):
        f = lambda x: np.array([x.sum(), x.prod()])
        a = effective_mean(f, np.ones(2), spec_em([0.1, 0.1]), RngStream(7))
        b = effective_mean(f, np.ones(2), spec_em([0.1, 0.1]), RngStream(7))
        assert np.array_equal(a, b)

    def test_wrong_strategy_rejected(self):
        with pytest.raises(UsageError):
            effective_mean(lambda x: x, np.ones(1),
                           RobustnessSpec(strategy="none"), RngStream(0))


class TestPenaltyRobust:
    SENSES = (Sense.MINIMIZE,)

    def test_constant_function_unpenalized(self):
        f = lambda x: 4.0
        out = penalty_robust(f, np.array([2.0]),
                             RobustnessSpec(strategy="penalty",
                                            delta=np.array([0.3])),
                             RngStream(0), self.SENSES)
        assert out[0] == 4.0

    def test_zero_noise_unpenalized(self):
        f = lambda x: x[0] ** 2 + 1.0
        out = penalty_robust(f, np.array([2.0]),
                             RobustnessSpec(strategy="penalty",
                                            delta=np.array([0.0])),
                             RngStream(0), self.SENSES)
        assert out[0] == 5.0

    def test_linear_mean_abs_deviation_oracle(self):
        # f(x) = x around 2 with delta 0.1: P = E|xi - 2| / 2 = 0.05
        f = lambda x: x[0]
        out = penalty_robust(f, np.array([2.0]),
                             RobustnessSpec(strategy="penalty",
                                            delta=np.array([0.1]),
                                            samples=10_000),
                             RngStream(1), self.SENSES)
        expected_pen = uniform_mean_abs_deviation(2.0, 0.2) / 2.0
        assert abs(expected_pen - 0.05) < 1e-15
        assert abs((out[0] - 2.0) - expected_pen) / expected_pen < 0.03

    def test_penalty_worsens_each_sense(self):
        f = lambda x: np.array([x[0] ** 2, x[0] ** 2])
        senses = (Sense.MINIMIZE, Sense.MAXIMIZE)
        x = np.array([1.5])
        out = penalty_robust(f, x, RobustnessSpec(strategy="penalty",
                                                  delta=np.array([0.2]),
                                                  samples=500),
                             RngStream(2), senses)
        fx = f(x)
        assert out[0] >= fx[0]
        assert out[1] <= fx[1]

    def test_division_hazard(self):
        f = lambda x: x[0] - 2.0
        with pytest.raises(DivisionHazardError):
            penalty_robust(f, np.array([2.0]),
                           RobustnessSpec(strategy="penalty",
                                          delta=np.array([0.1])),
                           RngStream(0), self.SENSES)


class TestTypeII:
    def test_zero_distance_always_accepted(self):
        assert type2_feasible(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                              eta=1e-9)

    def test_hand_example(self):
        assert not type2_feasible(np.array([1.0, 0.0]), np.array([1.2, 0.0]),
                                  eta=0.1)
        assert type2_feasible(np.array([1.0, 0.0]), np.array([1.05, 0.0]),
                              eta=0.1)

    def test_division_hazard(self):
        with pytest.raises(DivisionHazardError):
            type2_feasible(np.zeros(2), np.ones(2), eta=0.5)

    def test_eta_monotonicity_on_fixed_population(self):
        # a stricter eta never enlarges the accepted count
        rng = np.random.default_rng(5)
        f = lambda x: np.array([x[0] ** 2 + x[1], x[0] * x[1] + 2.0])
        pop = rng.uniform(0.5, 2.0, size=(40, 2))
        refs = []
        for i, x in enumerate(pop):
            spec = RobustnessSpec(strategy="type2", delta=np.full(2, 0.2),
                                  samples=100, eta=1.0)
            refs.append((f(x), type2_reference(f, x, spec, RngStream(i))))
        counts = []
        for eta in (0.5, 0.2, 0.1, 0.05, 0.01):
            counts.append(sum(type2_feasible(fx, fr, eta) for fx, fr in refs))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_worst_case_aggregator(self):
        f = lambda x: np.array([x[0]])
        spec = RobustnessSpec(strategy="type2", delta=np.array([0.2]),
                              samples=64, eta=0.1, worst_case=True)
        ref = type2_reference(f, np.array([1.0]), spec, RngStream(3),
                              senses=(Sense.MINIMIZE,))
        mean_spec = RobustnessSpec(strategy="type2", delta=np.array([0.2]),
                                   samples=64, eta=0.1)
        mean_ref = type2_reference(f, np.array([1.0]), mean_spec, RngStream(3))
        assert ref[0] > mean_ref[0]  # worst minimized sample sits above mean

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            RobustnessSpec(strategy="type2", delta=np.array([0.1]))
        with pytest.raises(UsageError):
            RobustnessSpec(strategy="bogus")
        with pytest.raises(UsageError):
            RobustnessSpec(strategy="effective_mean", delta=np.array([0.1]),
                           samples=0)


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
            # the scalar helper raises exactly on the hazard rows
            f = lambda x, i=i: f_nominal[i] * x[0]
            spec = RobustnessSpec(strategy="penalty", delta=np.array([0.1]),
                                  samples=4)
            if hazard[i]:
                with pytest.raises(DivisionHazardError):
                    penalty_robust(f, np.array([1.0]), spec, RngStream(i),
                                   (Sense.MINIMIZE,) * m)
            else:
                penalty_robust(f, np.array([1.0]), spec, RngStream(i),
                               (Sense.MINIMIZE,) * m)
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
            if not h:
                assert type2_feasible(f_nominal[i], f_ref[i], 1.0) == \
                    (ratio[i] <= 1.0)
            else:
                with pytest.raises(DivisionHazardError):
                    type2_feasible(f_nominal[i], f_ref[i], 1.0)
        assert hazard[1]
