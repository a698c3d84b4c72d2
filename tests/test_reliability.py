import logging

import numpy as np
import pytest

from rbrdo import (AsoslParams, GradientVanishedError, PerformanceFunction,
                   RandomVariableSpec, RngStream, UsageError, asosl_mpp,
                   backtracking_line_search, failure_probability,
                   from_standard_normal, second_order_step_bound,
                   std_normal_cdf, to_standard_normal)
from rbrdo.reliability import _asosl_engine, _secant_bound, make_u_space
from rbrdo.problems import benchmark

from oracles import min_on_circle


def rv(mean, std=1.0):
    return RandomVariableSpec(mean=mean, std=std)


class TestTransform:
    def test_centering(self):
        rvs = [rv(2.0, 0.5), rv(-1.0, 3.0)]
        assert np.allclose(to_standard_normal(np.array([2.0, -1.0]), rvs), 0.0)

    def test_identity_for_standard_marginals(self):
        rvs = [rv(0.0), rv(0.0)]
        x = np.array([2.0, -1.0])
        assert np.allclose(to_standard_normal(x, rvs), x)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        rvs = [rv(m, s) for m, s in zip(rng.normal(size=6),
                                        rng.uniform(0.1, 5.0, size=6))]
        xs = rng.normal(scale=10.0, size=(10_000, 6))
        back = from_standard_normal(to_standard_normal(xs, rvs), rvs)
        assert np.allclose(back, xs, rtol=1e-12, atol=1e-12)

    def test_sigma_validation(self):
        with pytest.raises(UsageError):
            RandomVariableSpec(mean=0.0, std=0.0)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_reference_values(self):
        assert abs(std_normal_cdf(3.0) - 0.99865) <= 1e-5
        assert abs(std_normal_cdf(1.0) - 0.8413) <= 1e-4

    def test_complement_identity(self):
        for z in np.linspace(-6, 6, 101):
            assert abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0) < 1e-14

    def test_monotone(self):
        zs = np.linspace(-8, 8, 401)
        vals = [std_normal_cdf(z) for z in zs]
        assert np.all(np.diff(vals) >= 0.0)
        assert all(0.0 < v < 1.0 for v in vals)


class TestFailureProbability:
    def test_zero_index(self):
        assert failure_probability(0.0) == 0.5

    def test_beta_three(self):
        assert abs(failure_probability(3.0) - 0.00135) <= 1e-5

    def test_strictly_decreasing(self):
        betas = np.linspace(0.0, 5.0, 51)
        vals = [failure_probability(b) for b in betas]
        assert np.all(np.diff(vals) < 0.0)

    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            failure_probability(-0.1)


class TestBacktracking:
    def test_quadratic_accepts_full_step(self):
        G = lambda u: 0.5 * float(u @ u)
        tau, _, ok = backtracking_line_search(G, np.array([1.0, 0.0]),
                                              np.array([1.0, 0.0]), 1.0)
        assert ok and tau == 1.0

    def test_linear_accepts_first_trial(self):
        a = np.array([2.0, -1.0])
        G = lambda u: 4.0 - float(a @ u)
        d = -a  # descent direction for this G
        tau, _, ok = backtracking_line_search(G, np.zeros(2), d, 0.7)
        assert ok and tau == 0.7

    def test_quartic_matches_ladder_oracle(self):
        G = lambda u: float(u @ u) ** 2
        u = np.array([2.0, 0.0])
        d = np.array([32.0, 0.0])  # gradient of ||u||^4 at u
        t_bar, alpha_b, s_b = 1.0, 1e-4, 0.5
        tau, _, ok = backtracking_line_search(G, u, d, t_bar, alpha_b, s_b)
        # oracle: first (largest) trial on the ladder satisfying Armijo
        dd = float(d @ d)
        expected = None
        t = t_bar
        for _ in range(60):
            if G(u - t * d) <= G(u) - alpha_b * t * dd:
                expected = t
                break
            t *= s_b
        assert ok and tau == expected

    def test_validation(self):
        G = lambda u: float(u @ u)
        with pytest.raises(UsageError):
            backtracking_line_search(G, np.ones(2), np.ones(2), 0.0)
        with pytest.raises(UsageError):
            backtracking_line_search(G, np.ones(2), np.zeros(2), 1.0)


class TestStepBound:
    def test_unit_curvature_quadratic_recovers_newton_step(self):
        # G(u - t d) = G - t d.d + t^2 d.d / 2 at tau=1: dG = -d.d/2
        d = np.array([3.0, 4.0])
        dd = float(d @ d)
        t_bar = second_order_step_bound(G_prev=10.0, G_curr=10.0 - dd / 2.0,
                                        d_prev=d, tau_prev=1.0, delta_eta=1.0)
        assert abs(t_bar - 1.0) < 1e-14

    def test_hand_arithmetic(self):
        d = np.array([2.0])  # d.d = 4
        t_bar = second_order_step_bound(G_prev=1.0, G_curr=0.0, d_prev=d,
                                        tau_prev=1.0, delta_eta=1.0)
        assert abs(t_bar - 2.0 / 3.0) < 1e-14

    def test_nonconvex_fallback_positive(self):
        rng = np.random.default_rng(4)
        hit_fallback = 0
        for _ in range(2000):
            d = rng.normal(size=3) * rng.uniform(0.1, 10)
            dd = float(d @ d)
            tau = rng.uniform(0.01, 5.0)
            g_prev = rng.normal() * 10
            # force the primary denominator negative: G_curr < G_prev - tau d.d
            g_curr = g_prev - tau * dd - rng.uniform(0.001, 50.0)
            t_bar = second_order_step_bound(g_prev, g_curr, d, tau,
                                            delta_eta=rng.uniform(0.1, 2.0))
            assert t_bar > 0.0
            hit_fallback += 1
        assert hit_fallback == 2000

    def test_cancelling_fallback_takes_its_exact_value(self):
        # |G_curr - G_prev| >> d.d: the shifted denominator, 2*delta_eta*d.d
        # in exact arithmetic, cancels to a non-positive value in floating
        # point; eta = (2 + 1e16 - 1) + 1 rounds to 1e16, t_aug = 1 + eta
        # to 1e16, and the exact bound is t_aug**2 / (2*delta_eta)
        t_bar = second_order_step_bound(G_prev=2.0, G_curr=-1e16,
                                        d_prev=np.array([1.0]), tau_prev=1.0,
                                        delta_eta=1.0)
        assert t_bar == 1e16 * 1e16 / 2.0

    def test_fallback_positive_under_cancellation(self):
        rng = np.random.default_rng(0)
        n = 20_000
        sign = rng.choice([-1.0, 1.0], size=(2, n))
        g_prev, g_ray = sign * 10.0 ** rng.uniform(0.0, 20.0, size=(2, n))
        tau = 10.0 ** rng.uniform(-8.0, 2.0, size=n)
        dd = 10.0 ** rng.uniform(-10.0, 2.0, size=n)
        t_bar = _secant_bound(g_prev, g_ray, tau, dd, 1.0)
        assert np.all(t_bar > 0.0)

    def test_vanished_gradient(self):
        with pytest.raises(GradientVanishedError):
            second_order_step_bound(1.0, 0.5, np.zeros(2), 1.0, 1.0)


def linear_pf(a, c):
    return PerformanceFunction(
        g=lambda d, x: c + np.asarray(x) @ a,
        grad_x=lambda d, x: np.broadcast_to(a, np.shape(x)).copy(),
        name="linear")


class TestAsoslLinear:
    def test_analytic_tangency(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=n)
            c = 3.0 * rng.normal()
            beta = rng.uniform(0.5, 5.0)
            rvs = [rv(0.0) for _ in range(n)]
            res = asosl_mpp(linear_pf(a, c), rvs, np.zeros(1),
                            AsoslParams(beta_t=beta))
            u_expect = -beta * a / np.linalg.norm(a)
            g_expect = c - beta * np.linalg.norm(a)
            assert res.converged
            assert res.iterations <= 200
            scale = max(1.0, np.linalg.norm(u_expect))
            assert np.linalg.norm(res.u_star - u_expect) / scale < 1e-6
            assert abs(res.g_star - g_expect) / max(1.0, abs(g_expect)) < 1e-6

    def test_general_marginals_back_transform(self):
        a = np.array([1.0, -2.0])
        rvs = [rv(3.0, 0.5), rv(-1.0, 2.0)]
        res = asosl_mpp(linear_pf(a, 0.0), rvs, np.zeros(1),
                        AsoslParams(beta_t=2.0))
        assert np.allclose(res.x_star,
                           from_standard_normal(res.u_star, rvs))
        assert abs(np.linalg.norm(res.u_star) - 2.0) <= 1e-10 * 2.0


class TestAsoslBenchmark:
    D_STAR = np.array([3.440563, 3.279963])
    SIGMA = np.array([0.3, 0.3])

    def _run(self, pf, beta=3.0, d=None):
        d = self.D_STAR if d is None else d
        rvs = [rv(m, 0.3) for m in d]
        return asosl_mpp(pf, rvs, d, AsoslParams(beta_t=beta))

    def test_published_margin_values(self):
        prob = benchmark.rbrdo()
        res1 = self._run(prob.constraints[0])
        res2 = self._run(prob.constraints[1])
        res3 = self._run(prob.constraints[2])
        assert abs(res1.g_star) <= 1e-2
        assert abs(res2.g_star) <= 1e-2
        assert abs(res3.g_star - 0.5118) <= 0.02

    def test_matches_argmin_oracle(self):
        prob = benchmark.rbrdo()
        for pf in prob.constraints:
            res = self._run(pf)
            ref, x_ref = min_on_circle(lambda x, pf=pf: pf.g(self.D_STAR, x),
                                       self.D_STAR, self.SIGMA, 3.0,
                                       n_points=2_000_000)
            assert abs(res.g_star - ref) <= 1e-6
            assert np.allclose(res.x_star, x_ref, atol=1e-3)

    def test_oracle_equivalence_random_draws(self):
        prob = benchmark.rbrdo()
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = rng.uniform(1.0, 10.0, size=2)
            beta = rng.uniform(1.0, 3.0)
            for pf in prob.constraints:
                res = self._run(pf, beta=beta, d=d)
                ref, _ = min_on_circle(lambda x, pf=pf: pf.g(d, x), d,
                                       self.SIGMA, beta, n_points=200_000)
                assert res.converged and res.iterations <= 200
                assert abs(res.g_star - ref) <= 1e-4

    def test_sphere_invariant_along_trace(self):
        prob = benchmark.rbrdo()
        res = self._run(prob.constraints[0])
        assert len(res.trace) == res.iterations
        for _, u, *_ in res.trace:
            assert abs(np.linalg.norm(u) - 3.0) <= 1e-10 * 3.0

    def test_finite_difference_matches_analytic_gradient(self):
        prob = benchmark.rbrdo()
        rng = np.random.default_rng(2)
        mu = self.D_STAR
        for pf in prob.constraints:
            G, grad = make_u_space(pf, mu, self.SIGMA, mu)
            pf_fd = PerformanceFunction(pf.g, None)
            _, grad_fd = make_u_space(pf_fd, mu, self.SIGMA, mu)
            for _ in range(100):
                u = rng.normal(size=(1, 2))
                ga = grad(u)
                gf = grad_fd(u)
                assert np.allclose(gf, ga, rtol=1e-5, atol=1e-8)


class TestAsoslEdgeCases:
    def test_gradient_vanished(self):
        pf = PerformanceFunction(g=lambda d, x: np.ones(np.shape(x)[:-1]),
                                 grad_x=lambda d, x: np.zeros(np.shape(x)))
        with pytest.raises(GradientVanishedError):
            asosl_mpp(pf, [rv(0.0), rv(0.0)], np.zeros(1),
                      AsoslParams(beta_t=1.0))

    def test_nonconvergence_flag(self):
        a = np.array([1.0, 1.0])
        res = asosl_mpp(linear_pf(a, 0.0), [rv(0.0), rv(0.0)], np.zeros(1),
                        AsoslParams(beta_t=2.0, max_iters=2))
        assert not res.converged
        assert res.iterations == 2

    def test_requires_random_variables(self):
        with pytest.raises(UsageError):
            asosl_mpp(linear_pf(np.ones(1), 0.0), [], np.zeros(1),
                      AsoslParams(beta_t=1.0))

    def test_random_initial_point(self):
        a = np.array([1.0, -1.0, 2.0])
        params = AsoslParams(beta_t=2.0, initial="random")
        res = asosl_mpp(linear_pf(a, 0.0), [rv(0.0)] * 3, np.zeros(1),
                        params, rng=RngStream(5))
        u_expect = -2.0 * a / np.linalg.norm(a)
        assert np.linalg.norm(res.u_star - u_expect) < 1e-5
        with pytest.raises(UsageError):
            asosl_mpp(linear_pf(a, 0.0), [rv(0.0)] * 3, np.zeros(1), params)


class TestBatchParity:
    def test_batch_matches_scalar(self):
        # one lockstep engine batch over many designs, row by row against
        # the scalar search
        prob = benchmark.rbrdo()
        rng = np.random.default_rng(17)
        d_batch = rng.uniform(1.5, 8.0, size=(16, 2))
        sigma = np.full((16, 2), 0.3)
        params = AsoslParams(beta_t=2.5)
        for pf in prob.constraints:
            Gfun, gradfun = make_u_space(pf, d_batch, sigma, d_batch)
            _, g_b, _, conv_b, _ = _asosl_engine(Gfun, gradfun, 2.5, 2, 16,
                                                 params)
            for i, d in enumerate(d_batch):
                rvs = [rv(m, 0.3) for m in d]
                res = asosl_mpp(pf, rvs, d, params)
                assert conv_b[i] == res.converged
                assert abs(g_b[i] - res.g_star) <= 1e-10


def _mixed_margin():
    """Margin whose batch rows stop at very different iterations.

    Column 0 of each design row picks the row's kind: 0 linear (converges
    in a few iterations), 1 |x0| (stalls unconverged), 2 Rosenbrock (runs
    to the 200 cap), 3 constant (dead gradient), 4 linear but NaN below
    x0 + x1 = -1 (its first steps cross the sphere and turn non-finite),
    5 x0 - x1 with its gradient's sign flipped (from a start where it is
    exactly 0, no trial passes the Armijo test in 60 halvings).
    Columns 1-2 are the slopes of kind 0.
    """
    def g(d, x):
        kind, a0, a1 = d[..., 0], d[..., 1], d[..., 2]
        x0, x1 = x[..., 0], x[..., 1]
        rosen = (1.0 - x0) ** 2 + 100.0 * (x1 - x0 * x0) ** 2
        return np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3, kind == 5],
            [1.0 + a0 * x0 + a1 * x1, np.abs(x0) + 0.1 * x1, rosen,
             np.full_like(x0, 5.0), x0 - x1],
            np.where(x0 + x1 < -1.0, np.nan, 1.0 + x0 + x1))

    def grad_x(d, x):
        kind, a0, a1 = d[..., 0, None], d[..., 1], d[..., 2]
        x0, x1 = x[..., 0], x[..., 1]
        one = np.ones_like(x0)
        rosen = np.stack([-2.0 * (1.0 - x0) - 400.0 * x0 * (x1 - x0 * x0),
                          200.0 * (x1 - x0 * x0)], -1)
        off = (x0 + x1 < -1.0)[..., None]
        return np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3, kind == 5],
            [np.stack([a0 * one, a1 * one], -1),
             np.stack([np.sign(x0), 0.1 * one], -1), rosen,
             np.zeros_like(x), np.stack([-one, one], -1)],
            np.where(off, np.nan, np.ones_like(x)))

    return g, grad_x


def _mixed_batch(kinds, seed=0):
    rng = np.random.default_rng(seed)
    b = kinds.size
    d = np.column_stack([kinds, rng.normal(size=(b, 2))])
    mu = rng.normal(scale=0.1, size=(b, 2))
    sigma = rng.uniform(0.5, 1.5, size=(b, 2))
    beta = rng.uniform(1.5, 3.0, size=b)
    # starts from which the search runs to the cap, turns non-finite, or
    # finds no Armijo step (x0 = x1 exactly)
    fixed = (kinds == 2) | (kinds == 4) | (kinds == 5)
    mu[fixed], sigma[fixed], beta[fixed] = 0.0, 1.0, 3.0
    return d, mu, sigma, beta


class TestCompaction:
    # 285 fast rows, 5 stalling, 6 capped stragglers, one dead, three
    # non-finite and four Armijo-stuck rows, shuffled through the batch
    KINDS = np.random.default_rng(1).permutation(
        np.repeat([0, 1, 2, 3, 4, 5], [285, 5, 6, 1, 3, 4])).astype(float)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_rows_match_batches_of_one(self, analytic, caplog):
        g, grad_x = _mixed_margin()
        pf = PerformanceFunction(g, grad_x if analytic else None)
        d, mu, sigma, beta = _mixed_batch(self.KINDS)
        b = beta.size
        params = AsoslParams(beta_t=3.0)
        Gfun, gradfun = make_u_space(pf, mu, sigma, d)
        with caplog.at_level(logging.DEBUG, logger="rbrdo.reliability"):
            u, G, iters, conv, _ = _asosl_engine(Gfun, gradfun, beta, 2, b,
                                                 params)
        unmet = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("Armijo condition unmet")]
        # a finite-difference gradient has the right sign: no stuck row
        assert unmet == (["Armijo condition unmet on 4 rows after 60 "
                          "halvings"] if analytic else [])
        assert u.shape == (b, 2) and G.shape == iters.shape == (b,)
        kinds = self.KINDS
        assert (iters[kinds == 2] == params.max_iters).all()
        assert (iters[kinds == 0] < 20).all() and conv[kinds == 0].all()
        assert (iters[kinds == 3] == 0).all()
        assert not conv[kinds == 4].any() and (iters[kinds == 4] < 20).all()
        for i in range(b):
            rows = slice(i, i + 1)
            G1, grad1 = make_u_space(pf, mu[rows], sigma[rows], d[rows])
            u1, g1, it1, conv1, _ = _asosl_engine(G1, grad1, beta[i], 2, 1,
                                                  params)
            assert u[i].tobytes() == u1[0].tobytes(), i
            assert G[i].tobytes() == g1[0].tobytes(), i
            assert iters[i] == it1[0] and conv[i] == conv1[0], i


def _spy(pf):
    """``pf`` whose margin records the rows of every call."""
    calls = []

    def g(d, x):
        calls.append(np.shape(x)[0])
        return pf.g(d, x)
    return PerformanceFunction(g, pf.grad_x), calls


class TestCompactionWork:
    def test_work_follows_the_live_rows(self):
        kinds = np.zeros(1200)
        kinds[777] = 2  # one straggler to the cap
        d, mu, sigma, beta = _mixed_batch(kinds, seed=3)
        pf, calls = _spy(PerformanceFunction(*_mixed_margin()))
        params = AsoslParams(beta_t=3.0)
        _, _, iters, _, _ = _asosl_engine(*make_u_space(pf, mu, sigma, d),
                                          beta, 2, kinds.size, params)
        assert iters[777] == params.max_iters
        assert (np.delete(iters, 777) < 20).all()
        # without compaction every iteration costs at least the full width
        assert sum(calls) < kinds.size * params.max_iters / 5
        assert max(calls[-20:]) <= 2

    def test_ladder_work_follows_its_pending_rows(self):
        # one engine step: the linear rows accept their first trial, the
        # five Rosenbrock rows halve their step many times
        kinds = np.zeros(1000)
        kinds[[3, 200, 501, 777, 998]] = 2
        d, mu, sigma, beta = _mixed_batch(kinds, seed=3)
        pf, calls = _spy(PerformanceFunction(*_mixed_margin()))
        _asosl_engine(*make_u_space(pf, mu, sigma, d), beta, 2, kinds.size,
                      AsoslParams(beta_t=3.0, max_iters=1))
        ladder = calls[1:-1]  # between the start's and the step's margins
        assert len(ladder) >= 8 and ladder[0] == kinds.size
        assert max(ladder[1:]) <= 5
        # a full-width ladder evaluates every row in every round
        assert sum(ladder) < kinds.size * len(ladder) / 5

    def test_row_subsets_evaluate_as_the_full_batch(self):
        rng = np.random.default_rng(5)
        b = 40
        d, mu, sigma, _ = _mixed_batch(rng.integers(0, 5, b).astype(float))
        for analytic in (True, False):
            g, grad_x = _mixed_margin()
            pf = PerformanceFunction(g, grad_x if analytic else None)
            Gfun, gradfun = make_u_space(pf, mu, sigma, d)
            u = rng.normal(size=(b, 2))
            for rows in (np.array([3]), np.flatnonzero(rng.random(b) < 0.5),
                         np.arange(b)):
                with np.errstate(all="ignore"):
                    assert (Gfun(u[rows], rows).tobytes()
                            == Gfun(u)[rows].tobytes())
                    assert (gradfun(u[rows], rows).tobytes()
                            == gradfun(u)[rows].tobytes())

    def test_stacked_closures_take_row_subsets(self, monkeypatch):
        from rbrdo import formulation
        seen = []
        engine = formulation._asosl_engine

        def spy(Gfun, gradfun, beta, n, b, params, *args, **kwargs):
            seen.append((Gfun, gradfun, n, b))
            return engine(Gfun, gradfun, beta, n, b, params, *args, **kwargs)

        monkeypatch.setattr(formulation, "_asosl_engine", spy)
        rng = np.random.default_rng(9)
        prob = benchmark.rbrdo()
        r = 30
        rows = rng.uniform(1.5, 8.0, size=(r, 2))
        formulation._stacked_mpp(prob, rows, np.full(r, 2.5))
        (Gfun, gradfun, n, b), = seen
        assert b == 3 * r
        u = rng.normal(size=(b, n))
        # a constraint block with no rows, one with a single row, one mixed
        for idx in (np.arange(b), np.array([r]), np.array([0, r - 1, 2 * r]),
                    np.flatnonzero(rng.random(b) < 0.3),
                    np.arange(2 * r, 3 * r)):
            assert Gfun(u[idx], idx).tobytes() == Gfun(u)[idx].tobytes()
            assert (gradfun(u[idx], idx).tobytes()
                    == gradfun(u)[idx].tobytes())
