import logging

import numpy as np
import pytest

from rbrdo import (AsoslParams, GradientVanishedError, PerformanceFunction,
                   UsageError, asosl_mpp)
from rbrdo import reliability
from rbrdo.reliability import (_armijo_ladder, _asosl_engine, _row_norm,
                               _secant_bound, make_u_space)
from rbrdo.problems import benchmark

from oracles import min_on_circle


ALPHA_B, S_B = 1e-4, 0.5
_A = np.array([2.0, -1.0])
# quadratic (full step accepted), linear (first trial 0.7 accepted) and
# quartic (halves) rows, with their descent directions and per-row t
LADDER_FUNCS = [lambda u: 0.5 * float(u @ u), lambda u: 4.0 - float(_A @ u),
                lambda u: float(u @ u) ** 2]
LADDER_U = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
LADDER_D = np.array([[1.0, 0.0], -_A, [32.0, 0.0]])
LADDER_T = np.array([1.0, 0.7, 1.0])


def ladder_G(x, rows):
    rows = range(len(LADDER_FUNCS)) if rows is None else rows
    return np.array([LADDER_FUNCS[r](xi) for r, xi in zip(rows, x)])


def run_ladder(trial=None):
    """One :func:`_armijo_ladder` call over the three rows."""
    u, d = LADDER_U, LADDER_D
    A = np.einsum("ij,ij->i", d, d)
    tau, G_ray = np.empty(3), np.empty(3)
    trial = np.empty_like(u) if trial is None else trial
    stuck = _armijo_ladder(ladder_G, None, u, d, ladder_G(u, None), A,
                           LADDER_T.copy(), np.ones(3, dtype=bool), ALPHA_B,
                           S_B, tau, G_ray, trial)
    return stuck, tau, G_ray


def ladder_oracle(row):
    """First (largest) trial on the scalar ladder satisfying Armijo."""
    G, u, d, t = (LADDER_FUNCS[row], LADDER_U[row], LADDER_D[row],
                  LADDER_T[row])
    dd = float(d @ d)
    for _ in range(60):
        if G(u - t * d) <= G(u) - ALPHA_B * t * dd:
            return t
        t *= S_B
    return None


class TestBacktracking:
    def test_quadratic_accepts_full_step(self):
        stuck, tau, _ = run_ladder()
        assert stuck == 0 and tau[0] == 1.0

    def test_linear_accepts_first_trial(self):
        stuck, tau, _ = run_ladder()
        assert stuck == 0 and tau[1] == 0.7

    def test_quartic_matches_ladder_oracle(self):
        stuck, tau, _ = run_ladder()
        assert stuck == 0 and tau[2] == ladder_oracle(2)

    def test_rows_match_scalar_ladder_oracles(self):
        stuck, tau, G_ray = run_ladder()
        assert stuck == 0
        assert tau.tolist() == [ladder_oracle(r) for r in range(3)]
        assert np.array_equal(
            G_ray, ladder_G(LADDER_U - tau[:, None] * LADDER_D, None))

    def test_trial_holds_the_accepted_ray_points(self):
        # uncompacted: the engine projects what the last round left in trial
        trial = np.full_like(LADDER_U, np.nan)
        _, tau, _ = run_ladder(trial)
        assert (trial.tobytes()
                == (LADDER_U - tau[:, None] * LADDER_D).tobytes())


def bound(g_prev, g_ray, d, tau, delta_eta):
    """:func:`_secant_bound` on one search ray with direction ``d``."""
    return _secant_bound(*map(np.float64, (g_prev, g_ray, tau, d @ d)),
                         delta_eta)


class TestStepBound:
    def test_unit_curvature_quadratic_recovers_newton_step(self):
        # G(u - t d) = G - t d.d + t^2 d.d / 2 at tau=1: dG = -d.d/2
        d = np.array([3.0, 4.0])
        dd = float(d @ d)
        t_bar = bound(10.0, 10.0 - dd / 2.0, d, 1.0, 1.0)
        assert abs(t_bar - 1.0) < 1e-14

    def test_hand_arithmetic(self):
        t_bar = bound(1.0, 0.0, np.array([2.0]), 1.0, 1.0)  # d.d = 4
        assert abs(t_bar - 2.0 / 3.0) < 1e-14

    def test_nonconvex_fallback_positive(self):
        rng = np.random.default_rng(4)
        hit_fallback = 0
        for _ in range(2000):
            d = rng.normal(size=3) * rng.uniform(0.1, 10)
            dd = float(d @ d)
            tau = rng.uniform(0.01, 5.0)
            g_prev = rng.normal() * 10
            # force the primary denominator negative: G_ray < G_prev - tau d.d
            g_ray = g_prev - tau * dd - rng.uniform(0.001, 50.0)
            t_bar = bound(g_prev, g_ray, d, tau, rng.uniform(0.1, 2.0))
            assert t_bar > 0.0
            hit_fallback += 1
        assert hit_fallback == 2000

    def test_cancelling_fallback_takes_its_exact_value(self):
        # |G_ray - G_prev| >> d.d: the shifted denominator, 2*delta_eta*d.d
        # in exact arithmetic, cancels to a non-positive value in floating
        # point; eta = (2 + 1e16 - 1) + 1 rounds to 1e16, t_aug = 1 + eta
        # to 1e16, and the exact bound is t_aug**2 / (2*delta_eta)
        t_bar = bound(2.0, -1e16, np.array([1.0]), 1.0, 1.0)
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
            res = asosl_mpp(linear_pf(a, c), np.zeros(n), np.ones(n),
                            np.zeros(1), AsoslParams(beta_t=beta))
            u_expect = -beta * a / np.linalg.norm(a)
            g_expect = c - beta * np.linalg.norm(a)
            assert res.converged
            assert res.iterations <= 200
            scale = max(1.0, np.linalg.norm(u_expect))
            assert np.linalg.norm(res.u_star - u_expect) / scale < 1e-6
            assert abs(res.g_star - g_expect) / max(1.0, abs(g_expect)) < 1e-6

    def test_general_marginals_back_transform(self):
        a = np.array([1.0, -2.0])
        mu, sigma = np.array([3.0, -1.0]), np.array([0.5, 2.0])
        res = asosl_mpp(linear_pf(a, 0.0), mu, sigma, np.zeros(1),
                        AsoslParams(beta_t=2.0))
        assert np.allclose(res.x_star, mu + sigma * res.u_star)
        assert abs(np.linalg.norm(res.u_star) - 2.0) <= 1e-10 * 2.0


class TestAsoslBenchmark:
    D_STAR = np.array([3.440563, 3.279963])
    SIGMA = np.array([0.3, 0.3])

    def _run(self, pf, beta=3.0, d=None):
        d = self.D_STAR if d is None else d
        return asosl_mpp(pf, d, self.SIGMA, d, AsoslParams(beta_t=beta))

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
            G, Gd = make_u_space(pf, mu, self.SIGMA, mu)
            pf_fd = PerformanceFunction(pf.g, None)
            _, Gd_fd = make_u_space(pf_fd, mu, self.SIGMA, mu)
            for _ in range(100):
                u = rng.normal(size=(1, 2))
                Ga, ga = Gd(u)
                Gf, gf = Gd_fd(u)
                assert Ga.tobytes() == Gf.tobytes() == G(u).tobytes()
                assert np.allclose(gf, ga, rtol=1e-5, atol=1e-8)


class TestAsoslEdgeCases:
    def test_gradient_vanished(self):
        pf = PerformanceFunction(g=lambda d, x: np.ones(np.shape(x)[:-1]),
                                 grad_x=lambda d, x: np.zeros(np.shape(x)))
        with pytest.raises(GradientVanishedError):
            asosl_mpp(pf, np.zeros(2), np.ones(2), np.zeros(1),
                      AsoslParams(beta_t=1.0))

    def test_nonconvergence_flag(self):
        a = np.array([1.0, 1.0])
        res = asosl_mpp(linear_pf(a, 0.0), np.zeros(2), np.ones(2),
                        np.zeros(1), AsoslParams(beta_t=2.0, max_iters=2))
        assert not res.converged
        assert res.iterations == 2

    def test_requires_random_variables(self):
        with pytest.raises(UsageError):
            asosl_mpp(linear_pf(np.ones(1), 0.0), [], [], np.zeros(1),
                      AsoslParams(beta_t=1.0))

    @pytest.mark.parametrize("mu,sigma", [
        ([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]]), ([0.0, 0.0], [1.0, 0.0]),
        ([0.0], [-1.0]), ([0.0], [np.nan])], ids=[
            "mismatched", "matrix", "zero-sigma", "negative-sigma",
            "nan-sigma"])
    def test_random_variable_validation(self, mu, sigma):
        with pytest.raises(UsageError):
            asosl_mpp(linear_pf(np.ones(len(mu)), 0.0), mu, sigma,
                      np.zeros(1), AsoslParams(beta_t=1.0))

    @pytest.mark.parametrize("key", ["beta_t", "delta_eta", "epsilon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_params_positive_and_finite(self, key, value):
        with pytest.raises(UsageError):
            AsoslParams(**{"beta_t": 1.0, key: value})


class TestRowNorm:
    # zeros of both signs, infinities, nan, subnormals, and values whose
    # squares overflow or underflow
    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310,
                        1e200, -3e180, 1e-200, -2e-170])

    @pytest.mark.parametrize("w", [1, 3, 1000])
    def test_bytes_match_numpy_norm(self, w):
        rng = np.random.default_rng(w)
        for n in [*range(1, 41), 136, 300]:  # and numpy's halved blocks
            x = rng.normal(size=(w, n)) * 10.0 ** rng.uniform(-8, 8, (w, n))
            mixed = rng.random((w, n)) < 0.2
            x[mixed] = rng.choice(self.SPECIAL, size=mixed.sum())
            with np.errstate(all="ignore"):
                expect = np.linalg.norm(x, axis=1).tobytes()
                assert _row_norm(x).tobytes() == expect, n
                # squared into scratch and summed in place, x itself too
                assert _row_norm(x, out=np.empty_like(x)).tobytes() == expect
                scratch = x.copy()
                assert _row_norm(scratch, out=scratch).tobytes() == expect


def _scaled_linear(grad_x):
    """g = 1 + x0 + x1 with the given gradient, one row per design."""
    return PerformanceFunction(lambda d, x: 1.0 + x[..., 0] + x[..., 1],
                               grad_x)


class TestNonFiniteGradient:
    def test_overflowing_dot_product_keeps_searching(self):
        # finite gradient components near 1e200: d.d overflows to inf,
        # which the step length absorbs (the row's cap is 0), so the row
        # steps in place and passes the tangency test on its first step
        scale = np.array([[1.0], [1.0], [1e200], [3e199]])
        pf = _scaled_linear(lambda d, x: np.ones_like(x) * d[..., :1])
        beta = np.array([2.0, 3.0, 2.0, 3.0])
        mu, sigma = np.zeros((4, 2)), np.ones((4, 2))
        params = AsoslParams(beta_t=3.0)
        u, G, iters, conv, _ = _asosl_engine(
            *make_u_space(pf, mu, sigma, scale), beta, 2, 4, params)
        assert conv.all() and (iters[:2] > 1).all()
        assert iters[2:].tolist() == [1, 1]
        assert np.allclose(G[2:], 1.0 + np.sqrt(2.0) * beta[2:], rtol=1e-15)
        for i in range(4):
            rows = slice(i, i + 1)
            u1, g1, it1, conv1, _ = _asosl_engine(
                *make_u_space(pf, mu[rows], sigma[rows], scale[rows]),
                beta[i], 2, 1, params)
            assert u[i].tobytes() == u1[0].tobytes(), i
            assert G[i].tobytes() == g1[0].tobytes(), i
            assert iters[i] == it1[0] and conv[i] == conv1[0], i

    def test_nan_or_inf_component_stops_the_row(self):
        # the first gradient component turns nan, inf or -inf where x0 < 0,
        # which the second step reaches; the margin stays finite
        def grad_x(d, x):
            out = np.ones_like(x)
            off = x[..., 0] < 0.0
            out[off, 0] = d[off, 0]
            return out
        comp = np.array([[1.0], [np.nan], [np.inf], [-np.inf]])
        mu, sigma = np.zeros((4, 2)), np.ones((4, 2))
        u, G, iters, conv, _ = _asosl_engine(
            *make_u_space(_scaled_linear(grad_x), mu, sigma, comp), 2.0, 2,
            4, AsoslParams(beta_t=3.0))
        assert conv.tolist() == [True, False, False, False]
        assert iters[1:].tolist() == [1, 1, 1]
        # the stopped rows keep the last finite state
        assert np.isfinite(G).all() and np.isfinite(u).all()
        assert (u[1:] > 0.0).all()


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
            Gfun, Gdfun = make_u_space(pf, d_batch, sigma, d_batch)
            _, g_b, _, conv_b, _ = _asosl_engine(Gfun, Gdfun, 2.5, 2, 16,
                                                 params)
            for i, d in enumerate(d_batch):
                res = asosl_mpp(pf, d, sigma[i], d, params)
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
        Gfun, Gdfun = make_u_space(pf, mu, sigma, d)
        with caplog.at_level(logging.DEBUG, logger="rbrdo.reliability"):
            u, G, iters, conv, _ = _asosl_engine(Gfun, Gdfun, beta, 2, b,
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
            G1, Gd1 = make_u_space(pf, mu[rows], sigma[rows], d[rows])
            u1, g1, it1, conv1, _ = _asosl_engine(G1, Gd1, beta[i], 2, 1,
                                                  params)
            assert u[i].tobytes() == u1[0].tobytes(), i
            assert G[i].tobytes() == g1[0].tobytes(), i
            assert iters[i] == it1[0] and conv[i] == conv1[0], i


def assert_rows_evaluate_alike(Gfun, Gdfun, u, rows):
    """The closures give a row subset the bits of the full batch's rows,
    and the margin-and-gradient closure the margin closure's margins."""
    G_all, grad_all = Gdfun(u)
    G_sub, grad_sub = Gdfun(u[rows], rows)
    assert G_sub.tobytes() == G_all[rows].tobytes()
    assert grad_sub.tobytes() == grad_all[rows].tobytes()
    assert Gfun(u[rows], rows).tobytes() == G_sub.tobytes()
    assert Gfun(u).tobytes() == G_all.tobytes()


def _spy_ladders(monkeypatch):
    """Record (u, d, tau, trial) as every :func:`_armijo_ladder` returns."""
    seen = []
    ladder = reliability._armijo_ladder

    def spy(Gfun, rows, u, d, Gu, A, t, active, alpha_b, s_b, tau, G_ray,
            trial):
        stuck = ladder(Gfun, rows, u, d, Gu, A, t, active, alpha_b, s_b,
                       tau, G_ray, trial)
        seen.append((u.copy(), d.copy(), tau.copy(), trial.copy()))
        return stuck
    monkeypatch.setattr(reliability, "_armijo_ladder", spy)
    return seen


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

    def test_ladder_work_follows_its_pending_rows(self, monkeypatch):
        # one engine step: the linear rows accept their first trial, the
        # five Rosenbrock rows halve their step many times
        kinds = np.zeros(1000)
        kinds[[3, 200, 501, 777, 998]] = 2
        d, mu, sigma, beta = _mixed_batch(kinds, seed=3)
        pf, calls = _spy(PerformanceFunction(*_mixed_margin()))
        ladders = _spy_ladders(monkeypatch)
        _asosl_engine(*make_u_space(pf, mu, sigma, d), beta, 2, kinds.size,
                      AsoslParams(beta_t=3.0, max_iters=1))
        ladder = calls[1:-1]  # between the start's and the step's margins
        assert len(ladder) >= 8 and ladder[0] == kinds.size
        assert max(ladder[1:]) <= 5
        # a full-width ladder evaluates every row in every round
        assert sum(ladder) < kinds.size * len(ladder) / 5
        # the compacted ladder still leaves u - tau d on every row
        (u, d_step, tau, trial), = ladders
        assert trial.tobytes() == (u - tau[:, None] * d_step).tobytes()

    def test_row_subsets_evaluate_as_the_full_batch(self):
        rng = np.random.default_rng(5)
        b = 40
        d, mu, sigma, _ = _mixed_batch(rng.integers(0, 5, b).astype(float))
        for analytic in (True, False):
            g, grad_x = _mixed_margin()
            pf = PerformanceFunction(g, grad_x if analytic else None)
            Gfun, Gdfun = make_u_space(pf, mu, sigma, d)
            u = rng.normal(size=(b, 2))
            for rows in (np.array([3]), np.flatnonzero(rng.random(b) < 0.5),
                         np.arange(b)):
                with np.errstate(all="ignore"):
                    assert_rows_evaluate_alike(Gfun, Gdfun, u, rows)

    def test_stacked_closures_take_row_subsets(self, monkeypatch):
        from rbrdo import formulation
        seen = []
        engine = formulation._asosl_engine

        def spy(Gfun, Gdfun, beta, n, b, params, *args, **kwargs):
            seen.append((Gfun, Gdfun, n, b))
            return engine(Gfun, Gdfun, beta, n, b, params, *args, **kwargs)

        monkeypatch.setattr(formulation, "_asosl_engine", spy)
        rng = np.random.default_rng(9)
        prob = benchmark.rbrdo()
        r = 30
        rows = rng.uniform(1.5, 8.0, size=(r, 2))
        formulation._stacked_mpp(prob, rows, np.full(r, 2.5))
        (Gfun, Gdfun, n, b), = seen
        assert b == 3 * r
        u = rng.normal(size=(b, n))
        # a constraint block with no rows, one with a single row, one mixed
        for idx in (np.arange(b), np.array([r]), np.array([0, r - 1, 2 * r]),
                    np.flatnonzero(rng.random(b) < 0.3),
                    np.arange(2 * r, 3 * r)):
            assert_rows_evaluate_alike(Gfun, Gdfun, u, idx)
