"""Acceptance suite: one test per release criterion, with a PASS line each.

The heavy multi-objective sweeps are shared module-scoped fixtures; the
whole module ran in 166 s on a 2-core x86-64 machine, 107 s of it in the
setup of criterion 9 (the reactor sweeps).
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from rbrdo import (Bounds, DeParams, ModeParams, ParetoArchive,
                   PerformanceFunction, RbrdoProblem, RngStream,
                   RobustnessSpec, Sense, asosl_mpp, build_mo_problem,
                   build_rbdo_evaluator, de_minimize, fit_front,
                   mode_optimize, sweep_robustness, sweep_specs)
from rbrdo.core import dominates_rows
from rbrdo.problems import benchmark, catalyst, heat_exchanger, reactor
from rbrdo.reliability import _secant_bound

from oracles import (REACTOR_CORNER_GAIN, REACTOR_FRONT_EXACT_BETA,
                     catalyst_reference_state, min_on_circle,
                     quadratic_effective_mean, reactor_zero_noise_front)


def ok(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def matched_pair_fraction(lo, hi, window=0.05, minimize=True):
    """Cross pairs within a beta window; fraction where the noisier front
    is worse with respect to the first objective's sense."""
    total = worse = 0
    for ob in hi:
        for oa in lo:
            if abs(oa[1] - ob[1]) <= window:
                total += 1
                worse += (ob[0] > oa[0]) if minimize else (ob[0] < oa[0])
    assert total > 0, "no matched pairs in the beta window"
    return worse / total, total


def second_difference_scale(x, y):
    """Residual scale of y about a smooth trend in sorted x, whatever the
    trend's shape: each interior point against the chord of its neighbors
    (Gasser, Sroka and Jennen-Steinmetz 1986)."""
    h0, h1 = np.diff(x)[:-1], np.diff(x)[1:]
    a, b = h1 / (h0 + h1), h0 / (h0 + h1)
    e = a * y[:-2] + b * y[2:] - y[1:-1]
    return float(np.sqrt(np.sum(e * e / (a * a + b * b + 1.0))
                         / (len(x) - 2)))


@pytest.fixture(scope="module")
def benchmark_sweep():
    prob = benchmark.rbrdo()
    params = ModeParams(seed=2024, generations=500)
    t0 = time.perf_counter()
    archives, errors = sweep_robustness(
        prob, sweep_specs(prob, [0.0, 0.05, 0.1], samples=50), params)
    assert not errors
    return archives, (time.perf_counter() - t0) / 3.0


@pytest.fixture(scope="module")
def heat_sweep():
    prob = heat_exchanger.rbrdo()
    params = ModeParams(seed=77, generations=500)
    archives, errors = sweep_robustness(
        prob, sweep_specs(prob, [0.0, 0.05, 0.1], samples=50), params)
    assert not errors
    return archives


@pytest.fixture(scope="module")
def reactor_sweep():
    prob = reactor.rbrdo()
    params = ModeParams(seed=99, generations=500)
    archives, errors = sweep_robustness(
        prob, sweep_specs(prob, [0.0, 0.05, 0.1], samples=50), params)
    assert not errors
    return archives


@pytest.fixture(scope="module")
def catalyst_sweep():
    prob = catalyst.rbrdo()
    params = ModeParams(seed=12, generations=500)
    archives, errors = sweep_robustness(
        prob, sweep_specs(prob, [0.0, 0.2], samples=50), params)
    assert not errors
    return archives


def test_criterion_01_benchmark_deterministic():
    det = benchmark.deterministic()
    target_d = np.array([3.113885, 2.062648])
    hits = 0
    times = []
    for seed in range(10):
        t0 = time.perf_counter()
        best = de_minimize(det, det.bounds,
                           DeParams(seed=seed, generations=100),
                           sense=det.sense)
        times.append(time.perf_counter() - t0)
        if (abs(best.objectives[0] - 5.176532) <= 1e-3
                and np.all(np.abs(best.decision - target_d) <= 1e-2)):
            hits += 1
    assert hits >= 9
    assert max(times) <= 1.0
    ok("criterion-1", f"{hits}/10 seeds at f=5.176532±1e-3, "
                      f"max {max(times):.2f}s/seed")


def test_criterion_02_benchmark_rbdo():
    prob = benchmark.rbrdo()
    evaluator, bounds, sense = build_rbdo_evaluator(prob, 3.0)
    t0 = time.perf_counter()
    best = de_minimize(evaluator, bounds, DeParams(seed=3, generations=100),
                       sense=sense)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    assert abs(best.objectives[0] - 6.720532) <= 0.02
    assert np.all(np.abs(best.decision
                         - np.array([3.440563, 3.279963])) <= 0.05)
    mu, sigma = prob.random_vars(best.decision)
    g = [asosl_mpp(pf, mu, sigma, best.decision, 3.0).g_star
         for pf in prob.constraints]
    assert abs(g[0]) <= 1e-2 and abs(g[1]) <= 1e-2
    assert abs(g[2] - 0.5118) <= 0.02
    ok("criterion-2", f"f={best.objectives[0]:.6f} d={best.decision.round(4)} "
                      f"g*=({g[0]:.4f},{g[1]:.4f},{g[2]:.4f}) {elapsed:.1f}s")


def test_criterion_03_asosl_oracle_equivalence():
    prob = benchmark.rbrdo()
    sigma = np.array([0.3, 0.3])
    rng = np.random.default_rng(31)
    worst = 0.0
    max_iters = 0
    for _ in range(100):
        d = rng.uniform(1.0, 10.0, size=2)
        beta = rng.uniform(1.0, 3.0)
        for pf in prob.constraints:
            res = asosl_mpp(pf, d, sigma, d, beta)
            ref, _ = min_on_circle(lambda x, pf=pf: pf.g(d, x), d, sigma,
                                   beta, n_points=1_000_000)
            err = abs(res.g_star - ref)
            worst = max(worst, err)
            max_iters = max(max_iters, res.iterations)
            assert res.iterations <= 200
            assert err <= 1e-4
    ok("criterion-3", f"300 searches, worst |g*-oracle|={worst:.2e}, "
                      f"max iterations={max_iters}")


def test_criterion_04_linear_closed_form():
    rng = np.random.default_rng(41)
    worst_u = worst_g = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=n)
        while np.linalg.norm(a) < 1e-6:
            a = rng.normal(size=n)
        c = 3.0 * rng.normal()
        beta = rng.uniform(0.5, 5.0)
        pf = PerformanceFunction(
            g=lambda d, x, a=a, c=c: c + np.asarray(x) @ a,
            grad_x=lambda d, x, a=a: np.broadcast_to(a, np.shape(x)).copy())
        res = asosl_mpp(pf, np.zeros(n), np.ones(n), np.zeros(1), beta)
        u_expect = -beta * a / np.linalg.norm(a)
        g_expect = c - beta * np.linalg.norm(a)
        assert res.converged
        eu = np.linalg.norm(res.u_star - u_expect) / max(
            1.0, np.linalg.norm(u_expect))
        eg = abs(res.g_star - g_expect) / max(1.0, abs(g_expect))
        worst_u, worst_g = max(worst_u, eu), max(worst_g, eg)
        assert eu <= 1e-6 and eg <= 1e-6
    ok("criterion-4", f"200 linear searches up to 8-D, rel errors "
                      f"u*<={worst_u:.1e} g*<={worst_g:.1e}")


def test_criterion_05_benchmark_front_ordering(benchmark_sweep):
    archives, per_level = benchmark_sweep
    objs = {lv: a.objectives for lv, a in archives.items()}
    for lv, o in objs.items():
        assert len(o) >= 30, f"delta={lv} front too small ({len(o)})"
    frac1, n1 = matched_pair_fraction(objs[0.0], objs[0.05])
    frac2, n2 = matched_pair_fraction(objs[0.05], objs[0.1])
    assert frac1 >= 0.9 and frac2 >= 0.9
    assert per_level <= 600.0
    ok("criterion-5", f"members={[len(objs[lv]) for lv in (0.0, 0.05, 0.1)]}, "
                      f"noisier-is-worse fractions {frac1:.3f} ({n1} pairs), "
                      f"{frac2:.3f} ({n2} pairs), {per_level:.0f}s/level")


def test_criterion_06_heat_exchanger_deterministic():
    det = heat_exchanger.deterministic()
    best_val = np.inf
    for seed in range(10):
        best = de_minimize(det, det.bounds,
                           DeParams(seed=seed, generations=100),
                           sense=det.sense)
        if best.constraint_violation == 0.0:
            best_val = min(best_val, best.objectives[0])
    assert best_val <= 7120.0
    ok("criterion-6", f"best-of-10 A_T={best_val:.2f} <= 7120")


def test_criterion_07_heat_exchanger_fronts(heat_sweep):
    objs = {lv: a.objectives for lv, a in heat_sweep.items()}
    top = objs[0.0][objs[0.0][:, 1] >= 2.9]
    assert len(top) > 0
    a_t = top[:, 0].min()
    assert abs(a_t - 10653.04) / 10653.04 <= 0.10
    frac1, n1 = matched_pair_fraction(objs[0.0], objs[0.05])
    frac2, n2 = matched_pair_fraction(objs[0.05], objs[0.1])
    assert frac1 >= 0.9 and frac2 >= 0.9
    ok("criterion-7", f"delta=0 max-beta end A_T={a_t:.1f} (target 10653.04"
                      f"±10%), ordering fractions {frac1:.3f}/{frac2:.3f}")


def test_criterion_08_reactor_multistart():
    det = reactor.deterministic()
    rows = np.array([[0.390, 0.390], [1.0, 0.393], [0.771, 0.517]])
    row_f = np.array([0.375, 0.388, 0.389])
    basins = set()
    best_f = -np.inf
    for seed in range(20):
        best = de_minimize(det, det.bounds,
                           DeParams(seed=seed, generations=100),
                           sense=det.sense)
        f = best.objectives[0]
        best_f = max(best_f, f)
        b = int(np.argmin(np.linalg.norm(rows - best.decision, axis=1)))
        if abs(f - row_f[b]) <= 0.002:
            basins.add(b)
    assert abs(best_f - 0.389) <= 0.002
    assert len(basins) >= 2
    ok("criterion-8", f"best f={best_f:.5f}, basins found "
                      f"{sorted(rows[list(basins)].tolist())}")


def test_criterion_09_reactor_dispersion(reactor_sweep):
    """Dispersion ordering across noise levels: R^2 falls, SQR rises.

    The noisy levels are judged about the published quadratic trend of f
    against beta. The zero-noise level is judged about its exact front:
    the single-reactor design cA1 = 1, where the budget involves k2 alone
    and f*0(beta) = (1 - c) / (1 + 16 k4 (1 - 0.15 beta)) with
    c = 1 / (1 + 16 k2 (1 - 0.15 beta)) (oracles.reactor_zero_noise_front).
    f*0 steepens faster than a quadratic toward beta = 5, so a quadratic
    misfits even a perfect zero-noise front: f*0's own quadratic SQR
    equals the computed front's, so that SQR is shape bias, not
    dispersion, and it exceeds the 5%-noise front's quadratic SQR. The
    first pair is checked again with a residual scale that does not
    depend on the trend's shape.
    """
    # dispersion statistics compare equal-sized fronts (the published
    # residual dof implies ~50-point fits): each archive is thinned to 50
    # beta-stratified members before fitting
    levels = (0.0, 0.05, 0.1)
    fronts = {}
    for lv in levels:
        o = reactor_sweep[lv].objectives
        order = np.argsort(o[:, 1], kind="stable")
        keep = order[np.unique(np.round(
            np.linspace(0, len(order) - 1, 50)).astype(int))]
        fronts[lv] = (o[keep, 1], o[keep, 0])
    quad = [fit_front(*fronts[lv]) for lv in levels]
    beta0, f0 = fronts[0.0]
    trend0 = reactor_zero_noise_front(beta0)
    resid = f0 - trend0
    exact_sqr = float(resid @ resid)
    exact_r2 = 1.0 - exact_sqr / float(np.sum((f0 - f0.mean()) ** 2))
    shape = fit_front(beta0, trend0)  # f*0's own quadratic misfit
    scale = [second_difference_scale(*fronts[lv]) for lv in levels[:2]]
    # reliability is never overstated: no zero-noise member lies above the
    # exact front (past REACTOR_FRONT_EXACT_BETA a two-reactor corner design
    # may lie above f*0 by up to REACTOR_CORNER_GAIN)
    o = reactor_sweep[0.0].objectives
    excess = o[:, 0] - reactor_zero_noise_front(o[:, 1])
    slack = np.where(o[:, 1] <= REACTOR_FRONT_EXACT_BETA, 1e-6,
                     REACTOR_CORNER_GAIN)
    r2 = [exact_r2] + [r.r2 for r in quad[1:]]
    sqr = [exact_sqr] + [r.sqr for r in quad[1:]]
    print(f"criterion-9 measurements: quadratic R2="
          f"{[f'{r.r2:.5f}' for r in quad]}, SQR="
          f"{[f'{r.sqr:.3e}' for r in quad]}, RMS="
          f"{[f'{r.rms:.3e}' for r in quad]}; delta=0 about f*0: "
          f"R2={exact_r2:.5f} SQR={exact_sqr:.3e}, f*0 quadratic "
          f"SQR={shape.sqr:.3e}, max excess={excess.max():.2e}; "
          f"second-difference scale={[f'{v:.3e}' for v in scale]}")
    assert np.all(excess <= slack)
    assert abs(shape.sqr / quad[0].sqr - 1.0) <= 0.10
    assert quad[0].r2 >= 0.99
    assert r2[1] > r2[2] and sqr[1] < sqr[2]  # the noise-driven pair
    assert r2[0] > r2[1] > r2[2]
    assert sqr[0] < sqr[1] < sqr[2]
    assert scale[0] < scale[1]
    ok("criterion-9", f"R2={[f'{v:.4f}' for v in r2]}, "
                      f"SQR={[f'{v:.2e}' for v in sqr]} (delta=0 about f*0)")


def test_criterion_10_catalyst_deterministic():
    det = catalyst.deterministic()
    best = de_minimize(det, det.bounds,
                       DeParams(seed=0, generations=100), sense=det.sense)
    d = best.decision
    assert abs(best.objectives[0] - 0.048065) <= 5e-4
    assert 0.20 <= d[1] <= 0.25
    assert 0.12 <= d[3] <= 0.15
    assert 0.70 <= d[4] <= 0.75
    ok("criterion-10", f"f={best.objectives[0]:.6f} v1={d[1]:.4f} "
                       f"t=({d[3]:.4f},{d[4]:.4f})")


def test_criterion_11_catalyst_integrator():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(40):
        v = rng.uniform(0.0, 1.0, size=3)
        t1, t2 = rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.0)
        y_rk4 = catalyst._final_state(v, t1, t2, h=1e-3)
        y_ref = catalyst_reference_state(v, t1, t2)
        worst = max(worst, float(np.abs(y_rk4 - y_ref).max()))
    assert worst <= 1e-8
    # observed convergence order across h in {4e-3, 2e-3, 1e-3}
    v, t1, t2 = np.array([0.9, 0.3, 0.1]), 0.15, 0.7
    ref = catalyst_reference_state(v, t1, t2)
    errs = [np.abs(catalyst._final_state(v, t1, t2, h=h) - ref).max()
            for h in (4e-3, 2e-3, 1e-3)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.9
    ok("criterion-11", f"max |rk4-closed|={worst:.2e}, observed order "
                       f"{min(orders):.2f}")


def test_criterion_12_catalyst_insensitivity(catalyst_sweep):
    objs = {lv: a.objectives for lv, a in catalyst_sweep.items()}
    near0 = objs[0.0][np.abs(objs[0.0][:, 1] - 1.6) <= 0.1]
    near2 = objs[0.2][np.abs(objs[0.2][:, 1] - 1.6) <= 0.1]
    assert len(near0) and len(near2)
    f0, f2 = near0[:, 0].mean(), near2[:, 0].mean()
    assert abs(f0 - f2) <= 0.002
    # the published pair at this reliability level: 0.0476 vs 0.0474
    assert abs(f0 - 0.0476) <= 0.002
    assert abs(f2 - 0.0474) <= 0.002
    ok("criterion-12", f"f(beta~1.6): delta=0 -> {f0:.4f}, "
                       f"delta=0.2 -> {f2:.4f}, gap {abs(f0-f2):.2e}")


def test_criterion_13_property_suites():
    rng = np.random.default_rng(13)
    senses = (Sense.MINIMIZE, Sense.MINIMIZE)

    # dominance partial-order laws over 10^4 random triples (both
    # objectives minimized, so the rows are already all-minimize)
    triples = rng.integers(0, 4, size=(10_000, 3, 2)).astype(float)
    for oa, ob, oc in triples:
        assert not dominates_rows(oa, oa)
        if dominates_rows(oa, ob):
            assert not dominates_rows(ob, oa)
            if dominates_rows(ob, oc):
                assert dominates_rows(oa, oc)

    # archive insertion order independence, one row at a time
    pop = rng.integers(0, 6, size=(40, 2)).astype(float)
    reference = None
    for perm_seed in range(4):
        archive = ParetoArchive(senses, 1)
        for idx in np.random.default_rng(perm_seed).permutation(len(pop)):
            archive.insert(np.zeros((1, 1)), pop[idx:idx + 1])
        got = sorted(map(tuple, archive.objectives))
        reference = got if reference is None else reference
        assert got == reference

    # sphere invariant on ASOSL traces
    prob = benchmark.rbrdo()
    for seed in range(10):
        d = np.random.default_rng(seed).uniform(1.5, 8.0, size=2)
        for pf in prob.constraints:
            res = asosl_mpp(pf, *prob.random_vars(d), d, 2.0)
            for _, u, *_ in res.trace:
                assert abs(np.linalg.norm(u) - 2.0) <= 1e-10 * 2.0

    # step-bound positivity sweep (both branches)
    for _ in range(2000):
        dvec = rng.normal(size=3) * rng.uniform(0.1, 10.0)
        tau = rng.uniform(0.01, 5.0)
        g_prev = 10.0 * rng.normal()
        g_curr = g_prev + rng.normal() * rng.uniform(0.1, 50.0)
        t_bar = _secant_bound(*(np.array([v]) for v in (g_prev, g_curr, tau,
                                                        dvec @ dvec)),
                              rng.uniform(0.1, 2.0))[0]
        assert t_bar > 0.0

    # effective-mean analytic oracles, scored by the population evaluator
    # on a constraint-free 1-D problem over the box [0, 10]
    def robust(f, x0, strategy, delta, samples, seed):
        problem = RbrdoProblem(
            name="oracle", det_bounds=Bounds(np.zeros(1), np.full(1, 10.0)),
            beta_bounds=(1.0, 1.0), senses=(Sense.MINIMIZE,),
            objective=lambda d, x: f(d[..., 0]), constraints=(),
            random_vars=lambda d: (d, d))
        spec = RobustnessSpec(strategy=strategy, delta=np.array([delta]),
                              samples=samples)
        objs, _ = build_mo_problem(problem, spec)[0].evaluate_batch(
            np.array([[x0, 1.0]]), RngStream(seed))
        return objs[0, 0]

    quad = robust(lambda x: x ** 2, 2.0, "effective_mean", 0.1, 10_000, 5)
    assert abs(quad - quadratic_effective_mean(2.0, 0.1)) < 0.04
    lin = robust(lambda x: 3.0 * x, 2.0, "effective_mean", 0.1, 10_000, 6)
    assert abs(lin - 6.0) < 0.01

    # penalty nonnegativity (worsens the minimized objective)
    pen = robust(lambda x: x ** 2 + 1.0, 1.5, "penalty", 0.2, 2000, 7)
    assert pen >= 1.5 ** 2 + 1.0

    # seeded bitwise reproducibility of a full (small) uncertain run
    spec = RobustnessSpec(strategy="effective_mean", delta=np.full(2, 0.05),
                          samples=20)
    evaluator, bounds, mo_senses = build_mo_problem(prob, robustness=spec)
    params = ModeParams(seed=1313, NP=12, generations=8, R=2)
    a = mode_optimize(evaluator, bounds, mo_senses, params)
    b = mode_optimize(evaluator, bounds, mo_senses, params)
    assert np.array_equal(a.objectives, b.objectives)
    assert np.array_equal(a.decisions, b.decisions)

    ok("criterion-13", "dominance laws, archive order-independence, sphere "
                       "invariant, step-bound positivity, effective-mean "
                       "oracles, penalty sign, bitwise reproducibility")
