import dataclasses

import numpy as np
import pytest

from rbrdo import (AsoslParams, Bounds, Candidate, ModeParams,
                   PerformanceFunction, RbrdoProblem, RngStream,
                   RobustnessSpec, Sense, UsageError, asosl_mpp,
                   build_mo_problem, build_rbdo_evaluator, evaluate_rbrdo,
                   sweep_robustness)
from rbrdo.formulation import evaluate_rbrdo_batch
from rbrdo.problems import benchmark, catalyst, heat_exchanger, reactor


def toy_problem(margin_offset, sense=Sense.MINIMIZE, psi=1e6):
    """1-D problem with one linear constraint margin x1 - offset."""
    return RbrdoProblem(
        name="toy",
        det_bounds=Bounds(np.zeros(1), np.full(1, 10.0)),
        beta_bounds=(0.5, 4.0),
        senses=(sense,),
        objective=lambda d, x: d[..., 0] ** 2,
        constraints=(PerformanceFunction(
            g=lambda d, x: x[..., 0] - margin_offset,
            grad_x=lambda d, x: np.ones(np.shape(x)),
            name="g1"),),
        random_vars=lambda d: (np.broadcast_to(5.0, d.shape[:-1] + (1,)),
                               np.broadcast_to(1.0, d.shape[:-1] + (1,))),
        psi=psi,
    )


class TestEvaluateRbrdo:
    def test_zero_noise_zero_violation_transparency(self):
        # margin min on sphere: 5 - beta - offset > 0 for offset 1, beta 2
        prob = toy_problem(margin_offset=1.0)
        cand = Candidate(d=np.array([3.0]), beta_t=2.0)
        sol = evaluate_rbrdo(cand, prob, RngStream(0))
        assert np.array_equal(sol.objectives, [9.0, 2.0])
        assert sol.feasible

    def test_violated_margin_penalty_arithmetic(self):
        # g* = 5 - 2 - 7.2 = -4.2 exactly (linear margin)
        prob = toy_problem(margin_offset=7.2, psi=1e3)
        cand = Candidate(d=np.array([3.0]), beta_t=2.0)
        sol = evaluate_rbrdo(cand, prob, RngStream(0))
        assert abs(sol.objectives[0] - (9.0 + 1e3 * 4.2)) < 1e-6
        # a violated probabilistic constraint also marks infeasibility
        assert not sol.feasible
        assert abs(sol.constraint_violation - 4.2) < 1e-6

    def test_maximize_sense_subtracts_penalty(self):
        prob = toy_problem(margin_offset=7.2, sense=Sense.MAXIMIZE, psi=1e3)
        cand = Candidate(d=np.array([3.0]), beta_t=2.0)
        sol = evaluate_rbrdo(cand, prob, RngStream(0))
        assert abs(sol.objectives[0] - (9.0 - 1e3 * 4.2)) < 1e-6

    def test_penalty_monotone_in_margin(self):
        vals = []
        for offset in (4.0, 5.0, 6.0):  # g* = 3 - offset, more negative
            prob = toy_problem(margin_offset=offset, psi=10.0)
            sol = evaluate_rbrdo(Candidate(np.array([1.0]), 2.0), prob,
                                 RngStream(0))
            vals.append(sol.objectives[0])
        assert vals[0] < vals[1] < vals[2]

    def test_bounds_validation(self):
        prob = toy_problem(1.0)
        with pytest.raises(UsageError):
            evaluate_rbrdo(Candidate(np.array([11.0]), 2.0), prob,
                           RngStream(0))
        with pytest.raises(UsageError):
            evaluate_rbrdo(Candidate(np.array([1.0]), 0.1), prob,
                           RngStream(0))

    def test_noise_mask_respected(self):
        # noise only on coordinate 0; record every sample the objective sees
        seen = []

        def spy_objective(d, x):
            seen.append(np.atleast_2d(d))
            return d[..., 0] + d[..., 1]

        prob = RbrdoProblem(
            name="toy2",
            det_bounds=Bounds(np.zeros(2), np.full(2, 10.0)),
            beta_bounds=(0.5, 4.0),
            senses=(Sense.MINIMIZE,),
            objective=spy_objective,
            constraints=(),
            random_vars=lambda d: (np.broadcast_to(5.0, d.shape[:-1] + (1,)),
                                   np.broadcast_to(1.0, d.shape[:-1] + (1,))),
            noise_mask=np.array([True, False]),
        )
        spec = RobustnessSpec(strategy="effective_mean",
                              delta=np.array([0.3, 0.3]), samples=40)
        evaluate_rbrdo(Candidate(np.array([2.0, 4.0]), 1.0), prob,
                       RngStream(0), robustness=spec)
        samples = np.vstack(seen)
        assert np.all(samples[:, 1] == 4.0)
        assert samples[:, 0].std() > 0.0

    def test_per_sample_flag_equivalent_at_zero_noise(self):
        prob = toy_problem(1.0)
        cand = Candidate(np.array([2.0]), 1.5)
        a = evaluate_rbrdo(cand, prob, RngStream(0), mpp_per_sample=True)
        b = evaluate_rbrdo(cand, prob, RngStream(0), mpp_per_sample=False)
        assert np.array_equal(a.objectives, b.objectives)

    def test_domain_guard_rejects(self):
        import dataclasses
        prob = dataclasses.replace(
            toy_problem(1.0),
            domain_guard=lambda d: np.maximum(d[..., 0] - 2.0, 0.0) * 1e6)
        sol = evaluate_rbrdo(Candidate(np.array([3.0]), 2.0), prob,
                             RngStream(0))
        assert not sol.feasible
        assert sol.constraint_violation == 1e6

    def test_constant_margin_candidate_survives(self):
        # reactor corner (1, 1): both residence times vanish, the margin is
        # the constant 4 (satisfied) and its gradient is identically zero;
        # the evaluator must not blow up on the stationary search
        prob = reactor.rbrdo()
        sol = evaluate_rbrdo(Candidate(np.array([1.0, 1.0]), 5.0), prob,
                             RngStream(0))
        assert sol.feasible
        assert sol.objectives[0] == pytest.approx(0.0, abs=1e-12)
        spec = RobustnessSpec(strategy="effective_mean",
                              delta=np.full(2, 0.05), samples=16)
        sol = evaluate_rbrdo(Candidate(np.array([1.0, 1.0]), 5.0), prob,
                             RngStream(0), robustness=spec)
        assert sol.constraint_violation < 1e12  # noisy samples stay sane

    def test_division_hazard_rejects_candidate(self):
        prob = toy_problem(1.0)
        spec = RobustnessSpec(strategy="penalty", delta=np.array([0.2]),
                              samples=16)
        # objective d^2 = 0 at d = 0: the nominal value hits the hazard
        sol = evaluate_rbrdo(Candidate(np.array([0.0]), 2.0), prob,
                             RngStream(0), robustness=spec)
        assert not sol.feasible


class TestFiniteDifferenceGradient:
    def test_matches_analytic_gradient(self):
        # without grad_x the stacked MPP pass differentiates the margins
        # numerically; penalties and feasibility must agree with the
        # analytic-gradient problem on noisy benchmark candidates
        analytic = benchmark.rbrdo()
        numeric = dataclasses.replace(analytic, constraints=tuple(
            dataclasses.replace(pf, grad_x=None)
            for pf in analytic.constraints))
        rng = np.random.default_rng(11)
        cands = [Candidate(rng.uniform(1.5, 6.0, size=2), rng.uniform(1.0, 3.0))
                 for _ in range(24)]
        spec = RobustnessSpec(strategy="effective_mean",
                              delta=np.full(2, 0.05), samples=8)
        a, b = (evaluate_rbrdo_batch(cands, prob,
                                     [RngStream(i) for i in range(24)],
                                     robustness=spec)
                for prob in (analytic, numeric))
        feasible = [s.feasible for s in a]
        assert 0 < sum(feasible) < len(feasible)
        assert [s.feasible for s in b] == feasible
        for sa, sb in zip(a, b):
            # objectives carry psi = 1e6 times the per-sample penalties
            assert sb.objectives[0] == pytest.approx(sa.objectives[0],
                                                     rel=1e-12)
            assert sb.constraint_violation == pytest.approx(
                sa.constraint_violation, rel=0.0, abs=1e-12)


class TestBuildMoProblem:
    @pytest.mark.parametrize("factory,n_dec,senses", [
        (benchmark.rbrdo, 3, (Sense.MINIMIZE, Sense.MAXIMIZE)),
        (heat_exchanger.rbrdo, 6, (Sense.MINIMIZE, Sense.MAXIMIZE)),
        (reactor.rbrdo, 3, (Sense.MAXIMIZE, Sense.MAXIMIZE)),
        (catalyst.rbrdo, 6, (Sense.MAXIMIZE, Sense.MAXIMIZE)),
    ])
    def test_dimensions_and_senses(self, factory, n_dec, senses):
        evaluator, bounds, got = build_mo_problem(factory())
        assert bounds.dim == n_dec
        assert got == senses

    def test_evaluator_round_trip(self):
        prob = toy_problem(1.0)
        evaluator, bounds, senses = build_mo_problem(prob)
        objs, viol = evaluator.evaluate_batch(np.array([[3.0, 2.0]]),
                                              [RngStream(0)])
        assert np.array_equal(objs, [[9.0, 2.0]])
        assert np.array_equal(viol, [0.0])


class TestRbdoEvaluator:
    def test_fixed_beta(self):
        prob = toy_problem(1.0)
        evaluator, bounds, sense = build_rbdo_evaluator(prob, 2.0)
        objs, viol = evaluator.evaluate_batch(np.array([[3.0]]),
                                              [RngStream(0)])
        assert np.array_equal(objs, [[9.0]])
        assert bounds.dim == 1 and sense is Sense.MINIMIZE

    def test_beta_outside_bounds(self):
        with pytest.raises(UsageError):
            build_rbdo_evaluator(toy_problem(1.0), 10.0)


class TestSweep:
    def test_equal_levels_identical_archives(self):
        prob = toy_problem(1.0)
        params = ModeParams(seed=3, NP=8, generations=5, R=2)
        archives, errors = sweep_robustness(prob, [0.05, 0.05], params,
                                            samples=8)
        assert not errors
        assert len(archives) == 1  # keyed by level value

    def test_errors_do_not_stop_other_levels(self):
        import dataclasses
        prob = toy_problem(1.0)
        boom = dataclasses.replace(
            prob, random_vars=lambda d: (_ for _ in ()).throw(RuntimeError()))
        params = ModeParams(seed=3, NP=8, generations=3, R=2)
        archives, errors = sweep_robustness(boom, [0.0, 0.1], params,
                                            samples=4)
        assert set(errors) == {0.0, 0.1}

    def test_level_keying_and_determinism(self):
        prob = toy_problem(1.0)
        params = ModeParams(seed=3, NP=8, generations=4, R=2)
        a, _ = sweep_robustness(prob, [0.0, 0.1], params, samples=8)
        b, _ = sweep_robustness(prob, [0.0, 0.1], params, samples=8)
        for level in (0.0, 0.1):
            assert np.array_equal(a[level].objective_matrix(),
                                  b[level].objective_matrix())


class TestCandidate:
    def test_vector_round_trip(self):
        cand = Candidate.from_vector(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(cand.d, [1.0, 2.0])
        assert cand.beta_t == 3.0
        assert np.array_equal(cand.as_vector(), [1.0, 2.0, 3.0])
