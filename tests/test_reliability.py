import dataclasses
import logging
import math
import platform

import numpy as np
import pytest

from rbrdo import (AsoslParams, GradientVanishedError, PerformanceFunction,
                   UsageError, asosl_mpp)
from rbrdo import reliability
from rbrdo.reliability import (_armijo_ladder, _asosl_engine, _dot_lanes,
                               _lane_dot, _pairwise_sum, _row_norm,
                               _secant_bound, make_u_space)
from rbrdo.problems import benchmark, get_rbrdo

from oracles import fd_grad_x, min_on_circle


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
    # x is coordinate-major: one column per batch row
    rows = range(len(LADDER_FUNCS)) if rows is None else rows
    return np.array([LADDER_FUNCS[r](xi) for r, xi in zip(rows, x.T)])


def run_ladder(trial=None):
    """One :func:`_armijo_ladder` call over the three rows."""
    u, d = LADDER_U.T.copy(), LADDER_D.T.copy()
    A = np.einsum("ij,ij->i", LADDER_D, LADDER_D)
    tau, G_ray = np.empty(3), np.empty(3)
    trial = np.empty_like(u) if trial is None else trial
    stuck = _armijo_ladder(ladder_G, None, u, d, ladder_G(u, None), A,
                           LADDER_T.copy(), np.ones(3, dtype=bool), ALPHA_B,
                           S_B, tau, G_ray, trial)
    return stuck, tau, G_ray


def _einsum_order_measured():
    """Whether this numpy's einsum is the build whose summation order
    ``_lane_dot`` reproduces: x86-64 with the X86_V2 baseline (two float64
    lanes, no fused multiply-add)."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and list(simd.get("baseline", ())) == ["X86_V2"])


EINSUM_ORDER_MEASURED = _einsum_order_measured()
einsum_order = pytest.mark.skipif(
    not EINSUM_ORDER_MEASURED,
    reason="einsum's summation order was measured on x86-64 numpy with "
           "the X86_V2 baseline only")


def reference_dot(a, b):
    """a . b of two rows in ``_lane_dot``'s documented order, one Python
    float at a time: two lanes from +0.0, the even and the odd
    coordinates; blocks of 8 whose four pairs are added last pair first;
    then the remaining pairs; then lane 0 + lane 1."""
    lanes = [0.0, 0.0]
    n = len(a)
    blocks = n - n % 8
    for base in range(0, blocks, 8):
        for p in (6, 4, 2, 0):
            for lane in (0, 1):
                lanes[lane] += a[base + p + lane] * b[base + p + lane]
    for p in range(blocks, n):
        lanes[p % 2] += a[p] * b[p]
    return lanes[0] + lanes[1]


def reference_dots(a, b):
    """:func:`reference_dot` of each row of the row-major a and b."""
    return np.array([reference_dot(p.tolist(), q.tolist())
                     for p, q in zip(a, b)], dtype=float)


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
            G_ray, ladder_G((LADDER_U - tau[:, None] * LADDER_D).T, None))

    def test_trial_holds_the_accepted_ray_points(self):
        # uncompacted: the engine projects what the last round left in trial
        trial = np.full(LADDER_U.T.shape, np.nan)
        _, tau, _ = run_ladder(trial)
        assert (trial.tobytes()
                == (LADDER_U - tau[:, None] * LADDER_D).T.tobytes())


def bound(g_prev, g_ray, d, tau, delta_eta):
    """:func:`_secant_bound` on one search ray with direction ``d``."""
    return _secant_bound(*(np.array([v]) for v in (g_prev, g_ray, tau,
                                                   d @ d)), delta_eta)[0]


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
        with np.errstate(all="ignore"):  # as inside the engine
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
                            np.zeros(1), beta)
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
        res = asosl_mpp(linear_pf(a, 0.0), mu, sigma, np.zeros(1), 2.0)
        assert np.allclose(res.x_star, mu + sigma * res.u_star)
        assert abs(np.linalg.norm(res.u_star) - 2.0) <= 1e-10 * 2.0


class TestAsoslBenchmark:
    D_STAR = np.array([3.440563, 3.279963])
    SIGMA = np.array([0.3, 0.3])

    def _run(self, pf, beta=3.0, d=None):
        d = self.D_STAR if d is None else d
        return asosl_mpp(pf, d, self.SIGMA, d, beta)

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
            pf_fd = PerformanceFunction(pf.g, fd_grad_x(pf.g))
            _, Gd_fd = make_u_space(pf_fd, mu, self.SIGMA, mu)
            for _ in range(100):
                u = rng.normal(size=(1, 2)).T  # coordinate-major
                Ga, ga = Gd(u)
                Gf, gf = Gd_fd(u)
                assert Ga.tobytes() == Gf.tobytes() == G(u).tobytes()
                assert np.allclose(gf, ga, rtol=1e-5, atol=1e-8)


class TestAsoslEdgeCases:
    def test_gradient_vanished(self):
        pf = PerformanceFunction(g=lambda d, x: np.ones(np.shape(x)[:-1]),
                                 grad_x=lambda d, x: np.zeros(np.shape(x)))
        with pytest.raises(GradientVanishedError):
            asosl_mpp(pf, np.zeros(2), np.ones(2), np.zeros(1), 1.0)

    def test_nonconvergence_flag(self):
        a = np.array([1.0, 1.0])
        res = asosl_mpp(linear_pf(a, 0.0), np.zeros(2), np.ones(2),
                        np.zeros(1), 2.0, AsoslParams(max_iters=2))
        assert not res.converged
        assert res.iterations == 2

    def test_requires_random_variables(self):
        with pytest.raises(UsageError):
            asosl_mpp(linear_pf(np.ones(1), 0.0), [], [], np.zeros(1), 1.0)

    @pytest.mark.parametrize("mu,sigma", [
        ([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]]), ([0.0, 0.0], [1.0, 0.0]),
        ([0.0], [-1.0]), ([0.0], [np.nan])], ids=[
            "mismatched", "matrix", "zero-sigma", "negative-sigma",
            "nan-sigma"])
    def test_random_variable_validation(self, mu, sigma):
        with pytest.raises(UsageError):
            asosl_mpp(linear_pf(np.ones(len(mu)), 0.0), mu, sigma,
                      np.zeros(1), 1.0)

    @pytest.mark.parametrize("key", ["beta_t", "delta_eta", "epsilon"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_params_positive_and_finite(self, key, value):
        # beta_t is each search's sphere radius, the rest its controls
        with pytest.raises(UsageError):
            if key == "beta_t":
                asosl_mpp(linear_pf(np.ones(1), 0.0), [0.0], [1.0],
                          np.zeros(1), value)
            else:
                AsoslParams(**{key: value})

    def test_params_hold_no_radius(self):
        with pytest.raises(TypeError):
            AsoslParams(beta_t=1.0)


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
                x = np.ascontiguousarray(x.T)  # coordinate-major
                assert _row_norm(x).tobytes() == expect, n
                # squared into scratch and summed in place, x itself too
                assert _row_norm(x, out=np.empty_like(x)).tobytes() == expect
                scratch = x.copy()
                assert _row_norm(scratch, out=scratch).tobytes() == expect


class TestSharedRows:
    """A row handed back at several coordinates: the unread coordinates'
    shared state row."""

    def test_repeated_terms_are_never_added_into(self):
        # the pairwise sum adds into its first term and its accumulators;
        # a term returned at several positions must not become one
        rng = np.random.default_rng(3)
        for n in [*range(1, 40), 136, 300]:
            own = rng.normal(size=(n, 7))
            shared = rng.normal(size=7)
            pick = rng.random(n) < 0.5
            pick[:2] = True  # the first term and an accumulator
            full = np.where(pick[:, None], shared, own)
            keep = shared.copy(), own.copy()
            got = _pairwise_sum(lambda j: shared if pick[j] else own[j], 0, n)
            expect = np.ascontiguousarray(full.T).sum(axis=1)
            assert got.tobytes() == expect.tobytes(), n
            assert shared.tobytes() == keep[0].tobytes(), n
            assert own.tobytes() == keep[1].tobytes(), n

    @pytest.mark.parametrize("n,reads", [(3, (1,)), (8, (0, 1, 2)),
                                         (8, (3, 4)), (8, (5, 6, 7)),
                                         (17, (7, 8, 9))])
    def test_norm_and_dot_of_a_shared_row(self, n, reads):
        # the unread coordinates share one row of u and have d = +0.0
        rng = np.random.default_rng(n)
        w = 500
        u = rng.normal(size=(len(reads) + 1, w))
        u[:, :50] = rng.choice([0.0, -0.0], size=(len(reads) + 1, 50))
        d = rng.normal(size=(len(reads), w))
        d[:, 25:75] = rng.choice([0.0, -0.0], size=(len(reads), 50))
        slot = [reads.index(j) if j in reads else len(reads)
                for j in range(n)]
        u_full = u[slot].T.copy()
        d_full = np.zeros((w, n))
        d_full[:, list(reads)] = d.T
        assert (_row_norm(u, slot).tobytes()
                == np.linalg.norm(u_full, axis=1).tobytes())
        lanes = _dot_lanes(reads, n)
        du, dd = _lane_dot(d, u[:-1], lanes), _lane_dot(d, d, lanes)
        assert du.tobytes() == reference_dots(d_full, u_full).tobytes()
        assert dd.tobytes() == reference_dots(d_full, d_full).tobytes()
        if EINSUM_ORDER_MEASURED:
            assert (du.tobytes()
                    == np.einsum("ij,ij->i", d_full, u_full).tobytes())
            assert (dd.tobytes()
                    == np.einsum("ij,ij->i", d_full, d_full).tobytes())


class TestLaneDot:
    @staticmethod
    def operands(w):
        """Row-major (a, b) pairs for n = 1..17: values across magnitudes
        with ±0, ±inf, nan, subnormals and overflowing squares, and rows
        of signed zeros (einsum's lanes start at +0.0)."""
        rng = np.random.default_rng(w)
        for n in range(1, 18):
            a, b = (rng.normal(size=(w, n))
                    * 10.0 ** rng.uniform(-8, 8, (w, n)) for _ in range(2))
            for x in (a, b):
                mixed = rng.random((w, n)) < 0.2
                x[mixed] = rng.choice(TestRowNorm.SPECIAL, size=mixed.sum())
            zeros = rng.choice([0.0, -0.0], size=(2, w, n))
            for p, q in ((a, b), (a, a), (b, b), (a, zeros[0]), tuple(zeros)):
                pc = np.ascontiguousarray(p.T)  # coordinate-major
                with np.errstate(all="ignore"):
                    got = _lane_dot(pc, pc if q is p
                                    else np.ascontiguousarray(q.T),
                                    _dot_lanes(range(n), n))
                yield n, p, q, got

    @staticmethod
    def assert_same_bytes(got, expect, n):
        # a NaN's sign and payload follow operand order, which numpy's own
        # multiply does not keep (its scalar tail swaps the operands): NaN
        # where the expected sum is NaN, and the exact bytes elsewhere
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(got), nan), n
        assert got[~nan].tobytes() == expect[~nan].tobytes(), n

    @pytest.mark.parametrize("w", [1, 3, 300])
    def test_bytes_match_the_documented_order(self, w):
        # holds on any platform: the order is _lane_dot's own
        for n, p, q, got in self.operands(w):
            self.assert_same_bytes(got, reference_dots(p, q), n)

    @einsum_order
    @pytest.mark.parametrize("w", [1, 3, 1000])
    def test_bytes_match_einsum(self, w):
        for n, p, q, got in self.operands(w):
            with np.errstate(all="ignore"):
                expect = np.einsum("ij,ij->i", p, q)
            self.assert_same_bytes(got, expect, n)


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
        params = AsoslParams()
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
            4, AsoslParams())
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
        params = AsoslParams()
        for pf in prob.constraints:
            Gfun, Gdfun = make_u_space(pf, d_batch, sigma, d_batch)
            _, g_b, _, conv_b, _ = _asosl_engine(Gfun, Gdfun, 2.5, 2, 16,
                                                 params)
            for i, d in enumerate(d_batch):
                res = asosl_mpp(pf, d, sigma[i], d, 2.5, params)
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
        pf = PerformanceFunction(g, grad_x if analytic else fd_grad_x(g))
        d, mu, sigma, beta = _mixed_batch(self.KINDS)
        b = beta.size
        params = AsoslParams()
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
    and the margin-and-gradient closure the margin closure's margins (u
    and the gradients are coordinate-major: a batch row is a column)."""
    G_all, grad_all = Gdfun(u)
    G_sub, grad_sub = Gdfun(u[:, rows], rows)
    assert G_sub.tobytes() == G_all[rows].tobytes()
    assert grad_sub.tobytes() == grad_all[:, rows].tobytes()
    assert Gfun(u[:, rows], rows).tobytes() == G_sub.tobytes()
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
        params = AsoslParams()
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
                      AsoslParams(max_iters=1))
        ladder = calls[1:-1]  # between the start's and the step's margins
        assert len(ladder) >= 8 and ladder[0] == kinds.size
        assert max(ladder[1:]) <= 5
        # a full-width ladder evaluates every row in every round
        assert sum(ladder) < kinds.size * len(ladder) / 5
        # the compacted ladder still leaves u - tau d on every row
        (u, d_step, tau, trial), = ladders
        assert trial.tobytes() == (u - tau * d_step).tobytes()

    def test_row_subsets_evaluate_as_the_full_batch(self):
        rng = np.random.default_rng(5)
        b = 40
        d, mu, sigma, _ = _mixed_batch(rng.integers(0, 5, b).astype(float))
        for analytic in (True, False):
            g, grad_x = _mixed_margin()
            pf = PerformanceFunction(g, grad_x if analytic else fd_grad_x(g))
            Gfun, Gdfun = make_u_space(pf, mu, sigma, d)
            u = rng.normal(size=(b, 2)).T  # coordinate-major
            for rows in (np.array([3]), np.flatnonzero(rng.random(b) < 0.5),
                         np.arange(b)):
                with np.errstate(all="ignore"):
                    assert_rows_evaluate_alike(Gfun, Gdfun, u, rows)

    @pytest.mark.parametrize("name", ["benchmark", "catalyst"])
    def test_one_engine_pass_per_constraint(self, name, monkeypatch):
        from rbrdo import formulation
        passes = []
        engine = formulation._asosl_engine

        def spy(Gfun, Gdfun, beta, n, b, params, *args, **kwargs):
            out = engine(Gfun, Gdfun, beta, n, b, params, *args, **kwargs)
            passes.append((b, out[2]))
            return out

        monkeypatch.setattr(formulation, "_asosl_engine", spy)
        prob = get_rbrdo(name)
        rng = np.random.default_rng(9)
        r = 30
        bounds = prob.det_bounds
        rows = rng.uniform(bounds.lower, bounds.upper,
                           size=(r, bounds.dim))
        if name == "benchmark":
            rows[:10] = rng.uniform(1.5, 3.0, size=(10, 2))  # infeasible
        betas = rng.uniform(*prob.beta_bounds, size=r)
        penalty, x_mpp = formulation._stacked_mpp(prob, rows, betas)
        assert [b for b, _ in passes] == [r] * len(prob.constraints)
        if name == "benchmark":
            # most rows stop before the slowest one: every pass compacts
            for _, iters in passes:
                assert np.count_nonzero(iters < iters.max()) > r // 2
            assert x_mpp is None and np.count_nonzero(penalty) >= 10
        else:
            assert x_mpp.shape == (r, len(prob.constraints))
        # each row and constraint searched alone, as a batch of one
        g = np.empty((len(prob.constraints), r))
        for j, pf in enumerate(prob.constraints):
            for i in range(r):
                res = asosl_mpp(pf, *prob.random_vars(rows[i]), rows[i],
                                betas[i], prob.mpp)
                g[j, i] = res.g_star
                if x_mpp is not None:  # constraint j governs variable j
                    assert x_mpp[i, j].tobytes() == res.x_star[j].tobytes()
        assert penalty.tobytes() == np.maximum(-g, 0.0).sum(axis=0).tobytes()


class TestReads:
    """A margin's declared ``reads`` changes no bit of its searches."""

    @pytest.mark.parametrize("name", ["heat-exchanger", "reactor",
                                      "catalyst"])
    def test_shipped_constraints_search_as_over_every_coordinate(self, name):
        prob = get_rbrdo(name)
        rng = np.random.default_rng(8)
        b = 300
        bounds = prob.det_bounds
        d = rng.uniform(bounds.lower, bounds.upper, size=(b, bounds.dim))
        beta = rng.uniform(*prob.beta_bounds, size=b)
        if name == "reactor":  # inside the domain d2 <= d1
            d[:, 1] = d[:, 0] * rng.uniform(0.1, 1.0, b)
        mu, sigma = (np.array(np.broadcast_to(a, (b, a.shape[-1])))
                     for a in prob.random_vars(d))
        # rows whose margins are NaN from the start, one way per problem;
        # they are most of the batch, so it compacts once they stop
        bad = rng.choice(b, 160, replace=False)
        if name == "heat-exchanger":
            d[bad] = np.nan
        elif name == "reactor":
            d[bad, 1] = 1.5 * d[bad, 0]
        else:
            mu[bad] = np.nan
        for pf in prob.constraints:
            runs = [_asosl_engine(*make_u_space(p, mu, sigma, d), beta,
                                  mu.shape[1], b, prob.mpp)[:4]
                    for p in (pf, dataclasses.replace(pf, reads=None))]
            for got, want in zip(*runs):
                assert got.tobytes() == want.tobytes(), pf.name
            u, G, iters, conv = runs[0]
            assert u.shape == (b, mu.shape[1])
            assert np.isnan(G[bad]).all() and not conv[bad].any()
            assert np.isfinite(np.delete(G, bad)).all()

    @pytest.mark.parametrize("analytic", [True, False])
    def test_every_kind_of_stop_with_unread_coordinates(self, analytic):
        # the mixed margin over four variables, of which it reads two
        g, grad_x = _mixed_margin()

        def grad4(d, x):
            out = np.zeros_like(x)
            out[..., :2] = grad_x(d, x[..., :2])
            return out

        pf = PerformanceFunction(g, grad4 if analytic else fd_grad_x(g),
                                 reads=(0, 1))
        d, mu, sigma, beta = _mixed_batch(TestCompaction.KINDS, seed=4)
        rng = np.random.default_rng(4)
        mu = np.column_stack([mu, rng.normal(size=(beta.size, 2))])
        sigma = np.column_stack([sigma, rng.uniform(0.5, 1.5, (beta.size, 2))])
        runs = [_asosl_engine(*make_u_space(p, mu, sigma, d), beta, 4,
                              beta.size, AsoslParams())[:4]
                for p in (pf, dataclasses.replace(pf, reads=None))]
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()
        u, G, iters, conv = runs[0]
        kinds = TestCompaction.KINDS
        assert (iters[kinds == 2] == 200).all() and conv[kinds == 0].all()
        # an unread coordinate only ever scales with its row's projection
        assert (u[:, 2] == u[:, 3]).all()

    def test_origin_fix_in_the_coordinate_major_layout(self):
        # from u = (1, 1) on the sphere of radius sqrt(2), the first step
        # of G = x0 + x1 lands on the origin; the fix projects it to the
        # pole -d/|d| it was heading to
        pf = linear_pf(np.ones(2), 0.0)
        beta = math.sqrt(2.0)
        res = asosl_mpp(pf, np.zeros(2), np.ones(2), np.zeros(1), beta)
        assert res.converged
        _, u1, _, tau1, _, _ = res.trace[0]
        assert tau1 == 1.0
        pole = -1.0 / math.sqrt(2.0) * beta
        assert u1.tolist() == [pole, pole]

    @pytest.mark.parametrize("reads", [(), (1, 0), (0, 0), (-1, 2), (0, 2)])
    def test_reads_must_increase(self, reads):
        with pytest.raises(UsageError):
            PerformanceFunction(lambda d, x: x[..., 0], None, reads=reads)

    def test_reads_must_lie_within_the_variables(self):
        pf = PerformanceFunction(lambda d, x: x[..., 0], None, reads=(2,))
        with pytest.raises(UsageError):
            make_u_space(pf, np.zeros(2), np.ones(2), np.zeros(1))
