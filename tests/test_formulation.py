import dataclasses

import numpy as np
import pytest

from rbrdo import (Bounds, ModeParams, PerformanceFunction, RbrdoProblem,
                   RngStream, RobustnessSpec, Sense, UsageError,
                   build_mo_problem, build_rbdo_evaluator, sweep_robustness,
                   sweep_specs)
from rbrdo.problems import benchmark, catalyst, heat_exchanger, reactor

from oracles import fd_grad_x


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


def score(problem, d, beta, robustness=None):
    """Objectives (beta_t last) and violation of the candidate (d, beta)
    through the population evaluator, sampled with stream (0,)."""
    evaluator, _, _ = build_mo_problem(problem, robustness)
    objs, viol = evaluator.evaluate_batch(np.append(d, beta)[None],
                                          RngStream(0))
    return objs[0], viol[0]


class TestEvaluateRbrdo:
    def test_zero_noise_zero_violation_transparency(self):
        # margin min on sphere: 5 - beta - offset > 0 for offset 1, beta 2
        prob = toy_problem(margin_offset=1.0)
        objs, viol = score(prob, [3.0], 2.0)
        assert np.array_equal(objs, [9.0, 2.0])
        assert viol == 0.0

    def test_violated_margin_penalty_arithmetic(self):
        # g* = 5 - 2 - 7.2 = -4.2 exactly (linear margin)
        prob = toy_problem(margin_offset=7.2, psi=1e3)
        objs, viol = score(prob, [3.0], 2.0)
        assert abs(objs[0] - (9.0 + 1e3 * 4.2)) < 1e-6
        # a violated probabilistic constraint also marks infeasibility
        assert viol > 0.0
        assert abs(viol - 4.2) < 1e-6

    def test_maximize_sense_subtracts_penalty(self):
        prob = toy_problem(margin_offset=7.2, sense=Sense.MAXIMIZE, psi=1e3)
        objs, _ = score(prob, [3.0], 2.0)
        assert abs(objs[0] - (9.0 - 1e3 * 4.2)) < 1e-6

    def test_penalty_monotone_in_margin(self):
        vals = []
        for offset in (4.0, 5.0, 6.0):  # g* = 3 - offset, more negative
            prob = toy_problem(margin_offset=offset, psi=10.0)
            vals.append(score(prob, [1.0], 2.0)[0][0])
        assert vals[0] < vals[1] < vals[2]

    def test_bounds_validation(self):
        prob = toy_problem(1.0)
        with pytest.raises(UsageError):
            score(prob, [11.0], 2.0)
        with pytest.raises(UsageError):
            score(prob, [1.0], 0.1)

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
        score(prob, [2.0, 4.0], 1.0, robustness=spec)
        samples = np.vstack(seen)
        assert np.all(samples[:, 1] == 4.0)
        assert samples[:, 0].std() > 0.0

    def test_samples_clipped_into_box(self):
        # d = 9.8 with delta 0.1 reaches 10.78, past the box's upper edge:
        # perturbed designs are still designs, so the objective sees the
        # samples clipped to 10
        seen = []

        def spy_objective(d, x):
            seen.append(np.atleast_2d(d))
            return d[..., 0]

        prob = dataclasses.replace(toy_problem(1.0), objective=spy_objective,
                                   constraints=())
        spec = RobustnessSpec(strategy="effective_mean", delta=np.array([0.1]),
                              samples=1000)
        score(prob, [9.8], 1.0, robustness=spec)
        samples = np.vstack(seen)[:, 0]
        assert samples.size == 1000
        assert np.all((samples >= 8.82 - 1e-12) & (samples <= 10.0))
        assert np.any(samples == 10.0)

    def test_per_sample_flag_equivalent_at_zero_noise(self):
        prob = toy_problem(1.0)
        a, _ = score(prob, [2.0], 1.5, RobustnessSpec())
        b, _ = score(prob, [2.0], 1.5, RobustnessSpec(mpp_nominal=True))
        assert np.array_equal(a, b)
        # catalyst's objective reads the failure points, which a nominal
        # check rescales onto noisy samples
        problem, xs = _population("catalyst")
        zero = np.zeros(problem.det_bounds.dim)
        a, b = (build_mo_problem(problem, RobustnessSpec(
            delta=zero, mpp_nominal=nominal))[0].evaluate_batch(xs, GENERATION)
            for nominal in (False, True))
        assert _bits(a[0]) == _bits(b[0]) and _bits(a[1]) == _bits(b[1])

    def test_domain_guard_rejects(self):
        prob = dataclasses.replace(
            toy_problem(1.0),
            domain_guard=lambda d: np.maximum(d[..., 0] - 2.0, 0.0) * 1e6)
        _, viol = score(prob, [3.0], 2.0)
        assert viol == 1e6

    def test_constant_margin_candidate_survives(self):
        # reactor corner (1, 1): both residence times vanish, the margin is
        # the constant 4 (satisfied) and its gradient is identically zero;
        # the evaluator must not blow up on the stationary search
        prob = reactor.rbrdo()
        objs, viol = score(prob, [1.0, 1.0], 5.0)
        assert viol == 0.0
        assert objs[0] == pytest.approx(0.0, abs=1e-12)
        spec = RobustnessSpec(strategy="effective_mean",
                              delta=np.full(2, 0.05), samples=16)
        _, viol = score(prob, [1.0, 1.0], 5.0, robustness=spec)
        assert viol < 1e12  # noisy samples stay sane

    def test_division_hazard_rejects_candidate(self):
        prob = toy_problem(1.0)
        spec = RobustnessSpec(strategy="penalty", delta=np.array([0.2]),
                              samples=16)
        # objective d^2 = 0 at d = 0: the nominal value hits the hazard
        _, viol = score(prob, [0.0], 2.0, robustness=spec)
        assert viol > 0.0


class TestFiniteDifferenceGradient:
    def test_matches_analytic_gradient(self):
        # with central-difference gradients of the margins, penalties and
        # feasibility must agree with the analytic-gradient problem on
        # noisy benchmark candidates
        analytic = benchmark.rbrdo()
        numeric = dataclasses.replace(analytic, constraints=tuple(
            dataclasses.replace(pf, grad_x=fd_grad_x(pf.g))
            for pf in analytic.constraints))
        rng = np.random.default_rng(11)
        xs = np.array([[*rng.uniform(1.5, 6.0, size=2), rng.uniform(1.0, 3.0)]
                       for _ in range(24)])
        spec = RobustnessSpec(strategy="effective_mean",
                              delta=np.full(2, 0.05), samples=8)
        (a_objs, a_viol), (b_objs, b_viol) = (
            build_mo_problem(prob, spec)[0].evaluate_batch(
                xs, RngStream(0))
            for prob in (analytic, numeric))
        feasible = a_viol == 0.0
        assert 0 < feasible.sum() < len(feasible)
        assert np.array_equal(b_viol == 0.0, feasible)
        for oa, ob, va, vb in zip(a_objs, b_objs, a_viol, b_viol):
            # objectives carry psi = 1e6 times the per-sample penalties
            assert ob[0] == pytest.approx(oa[0], rel=1e-12)
            assert vb == pytest.approx(va, rel=0.0, abs=1e-12)


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
                                              RngStream(0))
        assert np.array_equal(objs, [[9.0, 2.0]])
        assert np.array_equal(viol, [0.0])

    def test_noise_length_refused_when_built(self):
        # the toy problem has one design coordinate, the spec two
        spec = RobustnessSpec(strategy="effective_mean",
                              delta=np.full(2, 0.1), samples=4)
        with pytest.raises(UsageError, match="noise vector length"):
            build_mo_problem(toy_problem(1.0), spec)


class TestRbdoEvaluator:
    def test_fixed_beta(self):
        prob = toy_problem(1.0)
        evaluator, bounds, sense = build_rbdo_evaluator(prob, 2.0)
        objs, viol = evaluator.evaluate_batch(np.array([[3.0]]),
                                              RngStream(0))
        assert np.array_equal(objs, [[9.0]])
        assert bounds.dim == 1 and sense is Sense.MINIMIZE

    def test_beta_outside_bounds(self):
        with pytest.raises(UsageError):
            build_rbdo_evaluator(toy_problem(1.0), 10.0)


class TestSweep:
    def test_equal_levels_identical_archives(self):
        prob = toy_problem(1.0)
        params = ModeParams(seed=3, NP=8, generations=5, R=2)
        archives, errors = sweep_robustness(
            prob, sweep_specs(prob, [0.05, 0.05], samples=8), params)
        assert not errors
        assert len(archives) == 1  # keyed by level value

    def test_errors_do_not_stop_other_levels(self):
        prob = toy_problem(1.0)
        boom = dataclasses.replace(
            prob, random_vars=lambda d: (_ for _ in ()).throw(RuntimeError()))
        params = ModeParams(seed=3, NP=8, generations=3, R=2)
        archives, errors = sweep_robustness(
            boom, sweep_specs(boom, [0.0, 0.1], samples=4), params)
        assert set(errors) == {0.0, 0.1}

    @pytest.mark.parametrize("levels,scheme", [([0.0, -0.1], "lhs"),
                                               ([0.0, 0.05], "bogus"),
                                               ([0.0, np.nan], "lhs"),
                                               ([0.0, np.inf], "lhs"),
                                               ([], "lhs")])
    def test_bad_setting_rejected_before_any_run(self, monkeypatch, levels,
                                                 scheme):
        from rbrdo import formulation
        calls = []
        monkeypatch.setattr(formulation, "mode_optimize",
                            lambda *args, **kwargs: calls.append(args))
        params = ModeParams(seed=3, NP=8, generations=3, R=2)
        prob = toy_problem(1.0)
        with pytest.raises(UsageError):
            sweep_robustness(prob, sweep_specs(prob, levels, samples=4,
                                               scheme=scheme), params)
        assert calls == []

    def test_level_keying_and_determinism(self):
        prob = toy_problem(1.0)
        params = ModeParams(seed=3, NP=8, generations=4, R=2)
        a, _ = sweep_robustness(prob, sweep_specs(prob, [0.0, 0.1], samples=8),
                                params)
        b, _ = sweep_robustness(prob, sweep_specs(prob, [0.0, 0.1], samples=8),
                                params)
        for level in (0.0, 0.1):
            assert np.array_equal(a[level].objectives, b[level].objectives)


def _designs(problem, n, rng):
    """n designs inside the problem's box, with beta_t appended."""
    b = problem.det_bounds
    d = b.lower + rng.uniform(0.05, 0.95, size=(n, b.dim)) * (b.upper - b.lower)
    lo, hi = problem.beta_bounds
    return d, rng.uniform(lo, hi, size=n)


def _population(name, n=22):
    """Candidates (d, beta_t) for one problem; reactor's include designs on
    the guard's edge (samples dropped or all of them dropped), designs the
    guard rejects, and (1, 1), whose objective is 0 (a division hazard
    for the penalty and Type II strategies)."""
    rng = np.random.default_rng(0)
    problem = PROBLEMS[name]()
    if name == "benchmark":
        d = rng.uniform(1.5, 6.0, size=(n, 2))
        beta = rng.uniform(1.0, 3.0, size=n)
    elif name == "reactor":
        d = rng.uniform(0.05, 1.0, size=(n, 2))
        d[:, 1] = np.minimum(d[:, 1], d[:, 0])
        d[:8, 1] = d[:8, 0] * (1.0 - 1e-9)
        d[8:10, 1] = np.minimum(d[8:10, 0] * 1.5, 1.0)
        d[8:10, 0] = d[8:10, 1] / 1.5
        d[10] = (1.0, 1.0)
        beta = rng.uniform(0.1, 5.0, size=n)
    else:
        d, beta = _designs(problem, n, rng)
    return problem, np.column_stack([d, beta])


PROBLEMS = {"benchmark": benchmark.rbrdo,
            "heat-exchanger": heat_exchanger.rbrdo,
            "reactor": reactor.rbrdo, "catalyst": catalyst.rbrdo}
# (strategy, worst_case, noise level); the first case is noise-free
STRATEGIES = [("effective_mean", False, 0.0), ("effective_mean", False, 0.1),
              ("penalty", False, 0.1), ("type2", False, 0.1),
              ("type2", True, 0.1)]


def _population_case(name, k, strategy, worst, level):
    scheme, per_sample = ("lhs", "uniform")[k % 2], (k // 2) % 2 == 0
    # at zero noise the scheme and the MPP placement change nothing
    label = (f"{strategy}-{worst}-{scheme}-{per_sample}" if level
             else "delta0")
    return pytest.param(name, strategy, worst, level, scheme, per_sample,
                        id=f"{name}-{label}")


# every problem meets every strategy, both schemes and both MPP placements
POPULATION_CASES = [
    _population_case(name, k, *case)
    for name in PROBLEMS for k, case in enumerate(STRATEGIES)]


GENERATION = RngStream(0).substream(1, 0)  # row i draws from (1, 0, i)


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


def assert_batch_independent(evaluator, xs):
    """Row i's result is the same bits in the full batch, in the prefix
    batch ``xs[:i + 1]`` and in a batch whose other rows are replaced."""
    n = len(xs)
    objs, viol = evaluator.evaluate_batch(xs, GENERATION)
    assert objs.shape[0] == viol.shape[0] == n
    others = np.roll(xs, 1, axis=0)  # every row moves
    for i in range(n):
        replaced = others.copy()
        replaced[i] = xs[i]
        for batch in (xs[:i + 1], replaced):
            o, v = evaluator.evaluate_batch(batch, GENERATION)
            assert _bits(o[i]) == _bits(objs[i]), i
            assert _bits(v[i]) == _bits(viol[i]), i
    return objs, viol


class TestPopulationEvaluation:
    @pytest.fixture
    def seen(self, monkeypatch):
        """Populations and hazard masks the evaluations produced."""
        from rbrdo import formulation
        out = {"pops": [], "hazard": []}
        prepare, finish = formulation._prepare, formulation._finish

        def spy_prepare(*args, **kwargs):
            out["pops"].append(prepare(*args, **kwargs))
            return out["pops"][-1]

        def spy_finish(*args, **kwargs):
            res = finish(*args, **kwargs)
            out["hazard"].append(res[2])
            return res

        monkeypatch.setattr(formulation, "_prepare", spy_prepare)
        monkeypatch.setattr(formulation, "_finish", spy_finish)
        return out

    @pytest.mark.parametrize("name,strategy,worst,level,scheme,per_sample",
                             POPULATION_CASES)
    def test_batch_independent(self, name, strategy, worst, level, scheme,
                               per_sample, seen):
        # 16 samples: past 8 terms numpy sums pairwise, so a padded or
        # masked mean over ragged candidates would change their bits
        problem, xs = _population(name)
        spec = RobustnessSpec(
            strategy=strategy, delta=np.where(problem.noise_mask, level, 0.0),
            samples=16, eta=0.01 if strategy == "type2" else None,
            scheme=scheme, worst_case=worst, mpp_nominal=not per_sample)
        evaluator, _, _ = build_mo_problem(problem, spec)
        objs, viol = assert_batch_independent(evaluator, xs)
        assert np.array_equal(objs[:, -1], xs[:, -1])
        if name != "reactor":
            return
        # the cases the array path must get right all occur
        admitted = reactor.domain_guard(xs[:, :2]) == 0.0
        assert np.all(viol[~admitted] > 0.0)  # the guard rejected the design
        if level == 0.0:
            return
        counts = seen["pops"][0].counts
        assert len(np.unique(counts[counts > 8])) > 1  # ragged past 8 rows
        if strategy in ("penalty", "type2"):
            assert seen["hazard"][0].any()
            assert np.any(viol == 1e6)

    @pytest.mark.parametrize("scheme", ["lhs", "uniform"])
    def test_all_samples_dropped(self, scheme, seen):
        problem, xs = _population("reactor")
        spec = RobustnessSpec(strategy="effective_mean",
                              delta=np.full(2, 0.1), samples=5, scheme=scheme)
        evaluator, _, _ = build_mo_problem(problem, spec)
        assert_batch_independent(evaluator, xs)
        admitted = reactor.domain_guard(xs[:, :2]) == 0.0
        assert np.any(seen["pops"][0].rejected[admitted] > 0.0)

    @pytest.mark.parametrize("mpp_nominal", [False, True])
    def test_mpp_rows_per_placement(self, monkeypatch, mpp_nominal):
        # N candidates, M samples each: N nominal rows, plus the N*M
        # sample rows unless the constraints are checked at nominal only
        from rbrdo import formulation
        rows = []
        stacked = formulation._stacked_mpp

        def spy(problem, at, betas):
            rows.append(len(at))
            return stacked(problem, at, betas)
        monkeypatch.setattr(formulation, "_stacked_mpp", spy)
        problem, xs = _population("benchmark", n=6)
        spec = RobustnessSpec(delta=np.full(2, 0.1), samples=4,
                              mpp_nominal=mpp_nominal)
        build_mo_problem(problem, spec)[0].evaluate_batch(xs, GENERATION)
        assert rows == ([6] if mpp_nominal else [6 * 4 + 6])

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_fixed_beta_batch_independent(self, name):
        problem, xs = _population(name)
        evaluator, _, _ = build_rbdo_evaluator(problem,
                                               problem.beta_bounds[1])
        objs, _ = assert_batch_independent(evaluator, xs[:, :-1])
        assert objs.shape == (len(xs), 1)
