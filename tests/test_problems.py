import numpy as np
import pytest

from rbrdo import (RngStream, RobustnessSpec, UsageError, asosl_mpp,
                   build_mo_problem)
from rbrdo.problems import (benchmark, catalyst, get_deterministic, get_rbrdo,
                            heat_exchanger, list_problems, reactor)

from oracles import (REACTOR_CORNER_GAIN, REACTOR_FRONT_EXACT_BETA,
                     catalyst_reference_state, circle_points,
                     heat_exchanger_full_form, min_on_circle,
                     reactor_full_form_objective, reactor_residence_times,
                     reactor_zero_noise_front)


def stacked_margins(problem, d, x):
    """The problem's margins g_i(d, x), stacked on the last axis."""
    return np.stack([pf.g(d, x) for pf in problem.constraints], axis=-1)


class TestRegistry:
    def test_names(self):
        assert list_problems() == ["benchmark", "catalyst", "heat-exchanger",
                                   "reactor"]

    def test_unknown(self):
        with pytest.raises(UsageError):
            get_deterministic("nope")

    def test_factories(self):
        for name in list_problems():
            assert get_deterministic(name).name.startswith(name)
            assert get_rbrdo(name).name == name


class TestReads:
    @pytest.mark.parametrize("name", list_problems())
    def test_unread_columns_are_not_read(self, name):
        # NaN in the columns a margin declares unread changes no bit of
        # its value or gradient, and the gradient there is exactly +0.0
        prob = get_rbrdo(name)
        rng = np.random.default_rng(12)
        bounds = prob.det_bounds
        d = rng.uniform(bounds.lower, bounds.upper, size=(40, bounds.dim))
        if name == "reactor":  # inside the domain d2 <= d1
            d[:, 1] = d[:, 0] * rng.uniform(0.1, 1.0, 40)
        mu, sigma = prob.random_vars(d)
        x = mu + sigma * rng.normal(size=mu.shape)
        declared = [pf for pf in prob.constraints if pf.reads is not None]
        assert len(declared) == (0 if name == "benchmark"
                                 else len(prob.constraints))
        for pf in declared:
            unread = np.setdiff1d(np.arange(x.shape[1]), pf.reads)
            blind = x.copy()
            blind[:, unread] = np.nan
            for arg in (x, blind, np.asfortranarray(blind)):
                assert pf.g(d, arg).tobytes() == pf.g(d, x).tobytes()
                grad = pf.grad_x(d, arg)
                assert grad.tobytes() == pf.grad_x(d, x).tobytes()
                assert (grad[:, unread] == 0.0).all()
                assert not np.signbit(grad[:, unread]).any()


class TestBatchIndependence:
    """A row's result does not depend on the rows evaluated with it."""

    @pytest.mark.parametrize("name,near_equal_times",
                             [(name, False) for name in list_problems()]
                             + [("catalyst", True)])
    def test_deterministic_batch_equals_rows(self, name, near_equal_times):
        det = get_deterministic(name)
        rng = np.random.default_rng(11)
        lo, hi = det.bounds.lower, det.bounds.upper
        xs = lo + rng.random((50, lo.size)) * (hi - lo)
        if near_equal_times:
            # switch times within np.allclose of each other, not equal
            xs[:, 3] = 0.1338 + rng.uniform(0.0, 1e-7, 50)
            xs[:, 4] = 0.7237 + rng.uniform(0.0, 1e-7, 50)
        objs, viol = det.evaluate_batch(xs, [None] * len(xs))
        rows = [det.evaluate_batch(x[None, :], [None]) for x in xs]
        assert np.array_equal(objs, np.vstack([o for o, _ in rows]))
        assert np.array_equal(viol, np.concatenate([v for _, v in rows]))

    def test_rbrdo_batch_reversal(self):
        spec = RobustnessSpec(strategy="effective_mean",
                              delta=np.full(2, 0.05), samples=5)
        ev, bounds, _ = build_mo_problem(benchmark.rbrdo(), robustness=spec)
        rng = np.random.default_rng(5)
        xs = bounds.lower + rng.random((6, 3)) * (bounds.upper - bounds.lower)
        objs, viol = ev.evaluate_batch(
            xs, [RngStream(3, (1, 0, i)) for i in range(6)])
        r_objs, r_viol = ev.evaluate_batch(
            xs[::-1], [RngStream(3, (1, 0, i)) for i in reversed(range(6))])
        assert np.array_equal(r_objs, objs[::-1])
        assert np.array_equal(r_viol, viol[::-1])


class TestBenchmark:
    D_DET = np.array([3.113885, 2.062648])

    def test_objective_at_published_optimum(self):
        det = benchmark.deterministic()
        assert abs(det.objective(self.D_DET) - 5.176532) < 1e-5

    def test_first_two_constraints_active(self):
        m = stacked_margins(benchmark.rbrdo(), self.D_DET, self.D_DET)
        assert abs(m[0]) < 1e-3 and abs(m[1]) < 1e-3
        assert m[2] > 1.0  # third constraint inactive

    def test_published_optimum_feasible(self):
        det = benchmark.deterministic()
        assert det.violation(self.D_DET) < 1e-3

    def test_margins_vectorized(self):
        pts = np.array([self.D_DET, [4.0, 4.0]])
        prob = benchmark.rbrdo()
        m = stacked_margins(prob, pts, pts)
        assert m.shape == (2, 3)
        assert np.allclose(m[0], stacked_margins(prob, self.D_DET,
                                                 self.D_DET))


class TestHeatExchanger:
    def _reduced_optimum(self):
        # chain the three active margins from the published areas
        a1, a2, a3 = 579.31, 1359.97, 5109.97
        t1 = (300.0 * a1 + 250000.0 / 3.0) / (a1 + 2500.0 / 3.0)
        t2 = (400.0 * a2 + 1250.0 * t1) / (a2 + 1250.0)
        return np.array([a1, a2, a3, t1, t2])

    def test_margins_active_at_optimum(self):
        d = self._reduced_optimum()
        m = stacked_margins(heat_exchanger.rbrdo(), d, heat_exchanger.MU)
        scale = np.array([1e5, 1e5, 1e6])  # typical term magnitudes
        assert np.all(np.abs(m) / scale < 1e-4)

    def test_total_area(self):
        det = heat_exchanger.deterministic()
        assert abs(det.objective(self._reduced_optimum()) - 7049.25) < 0.01

    def test_full_form_consistent_at_optimum(self):
        d = self._reduced_optimum()
        t12 = 400.0 - d[3]
        t22 = 400.0 + d[3] - d[4]
        t32 = 100.0 + d[4]
        z = np.concatenate([d, [t12, t22, t32]])
        area, violation = heat_exchanger_full_form(z)
        assert abs(area - 7049.25) < 0.01
        assert violation < 10.0  # published rounding, scale ~1e5

    def test_random_vars_table(self):
        assert np.allclose(heat_exchanger.SIGMA / heat_exchanger.MU, 0.05)
        expected_sigma = [125.0 / 3.0, 15.0, 12500.0 / 3.0, 20.0, 62.5,
                          62500.0, 125.0, 5.0]
        assert np.allclose(heat_exchanger.SIGMA, expected_sigma)

    def test_reliability_active_at_max_beta_row(self):
        # the published max-reliability compromise sits where the margins
        # just stay positive on the beta=3 sphere
        prob = heat_exchanger.rbrdo()
        d = np.array([551.11, 1279.83, 8822.10, 153.48, 246.37])
        objs, viol = build_mo_problem(prob)[0].evaluate_batch(
            np.append(d, 3.0)[None], [RngStream(0)])
        assert viol[0] == 0.0
        assert abs(objs[0, 0] - 10653.04) < 0.01


class TestReactor:
    def test_global_optimum_value(self):
        f = reactor.concentration(np.array([0.771, 0.517]), reactor.MU)
        assert abs(f - 0.389) < 1e-3

    def test_local_optima(self):
        f1 = reactor.concentration(np.array([0.390, 0.390]), reactor.MU)
        f2 = reactor.concentration(np.array([1.0, 0.393]), reactor.MU)
        assert abs(f1 - 0.375) < 1e-3
        assert abs(f2 - 0.388) < 1e-3

    def test_residence_times_at_optimum(self):
        v1, v2 = reactor_residence_times(np.array([0.771, 0.517]))
        assert abs(v1 - 3.037) < 0.01
        assert abs(v2 - 5.096) < 0.01

    def test_budget_active_at_optimum(self):
        m = reactor.time_budget_margin(np.array([0.771, 0.517]), reactor.MU)
        assert abs(m) < 1e-2

    def test_reduced_matches_equality_elimination(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d1 = rng.uniform(0.05, 1.0)
            d2 = rng.uniform(0.05, d1)
            d = np.array([d1, d2])
            assert np.isclose(reactor.concentration(d, reactor.MU),
                              reactor_full_form_objective(d),
                              rtol=1e-12, atol=1e-14)

    def test_rate_constant_scale_invariance(self):
        rng = np.random.default_rng(1)
        d = np.array([0.7, 0.4])
        base = reactor.concentration(d, reactor.MU)
        for _ in range(20):
            c = rng.uniform(0.1, 10.0)
            assert np.isclose(reactor.concentration(d, c * reactor.MU), base,
                              rtol=1e-12)

    def test_domain_guard(self):
        assert reactor.domain_guard(np.array([0.4, 0.6])) == pytest.approx(2e5)
        assert reactor.domain_guard(np.array([0.6, 0.4])) == 0.0
        det = reactor.deterministic()
        assert det.violation(np.array([0.4, 0.6])) > 1e5
        assert det.objective(np.array([0.4, 0.6])) == 0.0

    def test_sigma_table(self):
        assert np.allclose(reactor.SIGMA / reactor.MU, 0.15)


def _reliable_margin(d, beta, n_theta=512):
    """Budget margin of each design row, minimized over the (k1, k2)
    beta-circle (k3 and k4 do not enter the budget)."""
    x = circle_points(reactor.MU[:2], reactor.SIGMA[:2], beta, n_theta)
    x = np.concatenate([x, np.broadcast_to(reactor.MU[2:], x.shape)], axis=1)
    return reactor.time_budget_margin(d[:, None, :], x).min(axis=1)


def _reliable_grid(beta, c1):
    """Dense grid of reliable designs: for each cA1 in c1, cA2 runs from the
    smallest reliable value (bisection; the margin rises with cA2) to cA1.
    Returns the designs, shape (len(c1), 50, 2), NaN where none is reliable."""
    lo, hi = np.zeros_like(c1), c1.copy()
    for _ in range(32):
        mid = 0.5 * (lo + hi)
        ok = _reliable_margin(np.stack([c1, mid], axis=-1), beta) >= 0.0
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
    hi[_reliable_margin(np.stack([c1, c1], axis=-1), beta) < 0.0] = np.nan
    c2 = hi[:, None] + (c1 - hi)[:, None] * np.linspace(0.0, 1.0, 50)
    return np.stack([np.broadcast_to(c1[:, None], c2.shape), c2], axis=-1)


class TestReactorZeroNoiseFront:
    """The closed-form zero-noise reliability front of tests/oracles.py."""

    BETAS = (0.1, 1.0, 2.5, 4.0, REACTOR_FRONT_EXACT_BETA)

    @pytest.mark.parametrize("beta", BETAS)
    def test_no_reliable_grid_design_beats_it(self, beta):
        d = _reliable_grid(beta, np.linspace(0.01, 1.0, 991))
        f = reactor.concentration(d, reactor.MU)
        best = np.nanmax(f)
        assert best <= reactor_zero_noise_front(beta) + 1e-9, \
            d[np.unravel_index(np.nanargmax(f), f.shape)]
        # the bound is attained, by the single-reactor design
        assert best >= reactor_zero_noise_front(beta) - 1e-9

    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_model_at_single_reactor(self, beta):
        k2w = reactor.MU[1] - beta * reactor.SIGMA[1]
        d = np.array([[1.0, 1.0 / (1.0 + 16.0 * k2w)]])
        assert abs(reactor.concentration(d[0], reactor.MU)
                   - reactor_zero_noise_front(beta)) <= 1e-12
        assert abs(_reliable_margin(d, beta)[0]) <= 1e-12

    def test_corner_design_overtakes_it_at_beta_5(self):
        # the corner of the reliable set, where the budget's worst cases near
        # the k1 and the k2 axis tie (located by a fine scan over cA1)
        d = np.array([0.85456, 0.73134])
        g, _ = min_on_circle(
            lambda x: reactor.time_budget_margin(
                d, np.concatenate([x, np.broadcast_to(reactor.MU[2:],
                                                      x.shape)], axis=1)),
            reactor.MU[:2], reactor.SIGMA[:2], 5.0)
        gain = reactor.concentration(d, reactor.MU) - reactor_zero_noise_front(5.0)
        assert g >= 0.0
        assert 5e-5 <= gain <= REACTOR_CORNER_GAIN


def catalyst_conversion(v, t1, t2, h=catalyst.DEFAULT_STEP):
    """1 - y1(1) - y2(1) of the shipped RK4 integrator, for controls v."""
    y = catalyst._final_state(np.asarray(v, dtype=float), t1, t2, h)
    return 1.0 - y[..., 0] - y[..., 1]


class TestCatalystSimulator:
    def test_zero_control_freezes_state(self):
        y = catalyst._final_state(np.zeros(3), 0.2, 0.8)
        assert np.allclose(y, [1.0, 0.0], atol=1e-14)
        assert catalyst_conversion(np.zeros(3), 0.2, 0.8) == pytest.approx(
            0.0, abs=1e-14)

    def test_published_optimum_value(self):
        # the objective the optimizer sees, at the controls' means
        d = np.array([1.0, 0.2248, 0.0, 0.1338, 0.7237])
        f = catalyst.rbrdo().objective(d, d[:3])
        assert abs(f - 0.048065) < 5e-5

    def test_rk4_matches_closed_form(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(25):
            v = rng.uniform(0.0, 1.0, size=3)
            t1 = rng.uniform(0.0, 0.5)
            t2 = rng.uniform(0.5, 1.0)
            y_rk4 = catalyst._final_state(v, t1, t2)
            y_cf = catalyst_reference_state(v, t1, t2)
            worst = max(worst, np.abs(y_rk4 - y_cf).max())
        assert worst <= 1e-8

    def test_fine_step_matches_independent_eig(self):
        # 100 times finer than h = 1e-3, the order-4 truncation error of
        # RK4 falls 1e8-fold, from at most 1e-8: it meets the eig form
        # within 1e-12
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.uniform(0.01, 1.0, size=3)
            t1, t2 = rng.uniform(0.1, 0.5), rng.uniform(0.55, 0.95)
            y = catalyst._final_state(v, t1, t2, h=1e-5)
            ref = catalyst_reference_state(v, t1, t2)
            assert np.allclose(y, ref, atol=1e-12)

    def test_grid_refinement_invariance(self):
        v = np.array([0.9, 0.3, 0.05])
        base = catalyst_conversion(v, 0.15, 0.7, h=1e-3)
        finer = catalyst_conversion(v, 0.15, 0.7, h=2.5e-4)
        assert abs(base - finer) <= 1e-8

    def test_batched_values(self):
        # decision rows and control rows broadcast against each other
        objective = catalyst.rbrdo().objective
        d = np.array([0.5, 0.5, 0.5, 0.2, 0.8])
        vals = np.array([[0.5, 0.5, 0.5], [1.0, 0.2, 0.0]])
        f = objective(d, vals)
        assert f.shape == (2,)
        assert np.allclose(f[1], objective(d, vals[1]))
        y = catalyst._final_state(vals, 0.2, 0.8)
        assert y.shape == (2, 2)
        assert np.allclose(y[1], catalyst._final_state(vals[1], 0.2, 0.8))


class TestCatalystReliability:
    def test_linear_margin_closed_form(self):
        # margin x_i on the beta sphere: min = mu_i (1 - 0.1 beta)
        prob = catalyst.rbrdo()
        d = np.array([0.5, 0.3, 0.2, 0.15, 0.7])
        mu, sigma = prob.random_vars(d)
        for i, pf in enumerate(prob.constraints):
            res = asosl_mpp(pf, mu, sigma, d, 2.0)
            assert res.converged
            assert abs(res.g_star - d[i] * 0.8) < 1e-6

    def test_published_compromise_points(self):
        prob = catalyst.rbrdo()
        rows = [
            (np.array([0.9984, 0.2695, 0.0004, 0.1669, 0.7341]), 0.0476),
            (np.array([0.9982, 0.2601, 0.0002, 0.1728, 0.7242]), 0.0474),
        ]
        evaluator = build_mo_problem(prob)[0]
        for d, f_expected in rows:
            objs, viol = evaluator.evaluate_batch(np.append(d, 1.6)[None],
                                                  [RngStream(0)])
            assert viol[0] == 0.0
            assert abs(objs[0, 0] - f_expected) < 5e-4
