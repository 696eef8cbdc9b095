"""End-to-end acceptance checks.

Each test exercises one shipped claim at its stated tolerance and prints a
single verdict line (run with ``pytest -s`` to see them all).  Tolerances and
runtime budgets are asserted, not just reported.
"""

import time

import numpy as np

from slsctrl import (
    CorrelationSpec,
    IslsConfig,
    LinearPlant,
    StateCostFunction,
    TimeVaryingLinearSystem,
    TrackingObjective,
    adapt_feedforward,
    add_correlation,
    batch_lqt,
    bench_mug_sugar,
    bench_pickplace,
    build_viapoint_cost,
    dp_lqt,
    extract_controller,
    isls_optimize,
    joint_limit_violation_jacobian,
    linear_system_from_plant,
    planar_arm_plant,
    precompute_gain_maps,
    rollout,
    solve_esls,
)
from slsctrl.bench import bundled_scenario_path
from slsctrl.costs import expected_inner, expected_quadratic
from slsctrl.scenarios import (
    Scenario,
    build_cost,
    build_plant,
    load_scenario,
)

from dense_views import achievability_residual, closed_loop_maps, feedforward_residual
from oracles import (
    dense_stacked_maps,
    dense_tracking_pieces,
    fd_gradient,
    fd_hessian,
    fd_jacobian,
    kkt_feedback,
    mc_expected_inner,
    mc_expected_quadratic,
)


def _verdict(num, name, ok, detail):
    line = f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _random_system(rng, T_max=15):
    T = int(rng.integers(2, T_max + 1))
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    A = rng.normal(size=(m, m)) * 0.5
    B = rng.normal(size=(m, n))
    return T, m, n, A, B


def _blockdiag_cost(rng, T, m, n):
    vps = []
    for t in range(T + 1):
        L = rng.normal(size=(m, m))
        vps.append((t, rng.normal(size=m), L @ L.T + 0.1 * np.eye(m)))
    return build_viapoint_cost(T, vps, float(rng.uniform(0.3, 1.0)),
                               state_dim=m, input_dim=n)


def _tracking_cost(rng, T, m, n, with_correlation):
    times = rng.choice(T + 1, size=min(3, T + 1), replace=False)
    vps = [(int(t), rng.normal(size=m), float(rng.uniform(0.5, 2.0)))
           for t in times]
    cost = build_viapoint_cost(T, vps, float(rng.uniform(0.3, 1.5)),
                               state_dim=m, input_dim=n)
    corrs = []
    if with_correlation and T >= 3:
        L = rng.normal(size=(m, m))
        spec = CorrelationSpec(1, T - 1, rng.normal(size=(m, m)),
                               rng.normal(size=m), L @ L.T + 0.1 * np.eye(m))
        cost = add_correlation(cost, spec)
        corrs.append((1, T - 1, spec.C, spec.c, spec.Q_c))
    return cost, vps, corrs


def test_criterion_01_dp_lqt_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        T, m, n, A, B = _random_system(rng)
        cost = _blockdiag_cost(rng, T, m, n)
        st = TimeVaryingLinearSystem.constant(A, B, T)
        ctrl = extract_controller(solve_esls(st, cost))
        dp = dp_lqt(TimeVaryingLinearSystem.constant(A, B, T), cost)
        plant = LinearPlant(A, B)
        w = np.zeros((T + 1) * m)
        w[:m] = rng.normal(size=m)
        tr_sls = rollout(plant, ctrl, w=w)
        tr_dp = rollout(plant, dp, w=w)
        worst = max(worst, float(np.max(np.abs(tr_sls.states - tr_dp.states))))
    elapsed = time.perf_counter() - t0
    _verdict(1, "zero-noise rollouts match dynamic programming",
             worst <= 1e-8 and elapsed < 5.0,
             f"max state gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_batch_least_squares_identity():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        T, m, n, A, B = _random_system(rng, T_max=12)
        cost, _, _ = _tracking_cost(rng, T, m, n, with_correlation=trial % 2 == 0)
        st = TimeVaryingLinearSystem.constant(A, B, T)
        resp = solve_esls(st, cost)
        u_hat = batch_lqt(st, cost)
        worst = max(worst, float(np.max(np.abs(resp.d_u - u_hat))))
    elapsed = time.perf_counter() - t0
    _verdict(2, "planned inputs equal the batch least-squares plan",
             worst <= 1e-9 and elapsed < 2.0,
             f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_structural_residuals():
    # the package's O(T) checks of the plan and the gains, and the dense
    # achievability and feedforward residuals of the maps the gains define
    rng = np.random.default_rng(103)
    worst = 0.0
    solves = []
    for trial in range(20):
        T, m, n, A, B = _random_system(rng, T_max=12)
        cost, _, _ = _tracking_cost(rng, T, m, n, with_correlation=trial % 3 == 0)
        st = TimeVaryingLinearSystem.constant(A, B, T)
        solves.append((st, solve_esls(st, cost)))
    scenario = Scenario.from_dict(
        load_scenario(bundled_scenario_path("mug_sugar")).raw)
    plant = build_plant(scenario)
    st = linear_system_from_plant(plant, scenario.horizon)
    solves.append((st, solve_esls(st, build_cost(scenario))))
    for st, resp in solves:
        res = resp.residuals()
        worst = max(worst, res["stationarity"], res["gain_stationarity"],
                    achievability_residual(st, *closed_loop_maps(resp)),
                    feedforward_residual(st, resp.d_x, resp.d_u))
    _verdict(3, "stationarity, gain stationarity, achievability and feedforward",
             worst <= 1e-10, f"max {worst:.2e} over {len(solves)} solves")


def test_criterion_04_column_solver_vs_dense_kkt():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        T = int(rng.integers(3, 13))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        A_list = [rng.normal(size=(m, m)) * 0.6 for _ in range(T + 1)]
        B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
        st = TimeVaryingLinearSystem(A_list, B_list)
        cost, vps, corrs = _tracking_cost(rng, T, m, n,
                                          with_correlation=trial % 2 == 0)
        resp = solve_esls(st, cost)
        Qd, _, Rd, _ = dense_tracking_pieces(T, m, n, vps, corrs,
                                             control_weight=cost.R[0])
        phi_x_ref, phi_u_ref = kkt_feedback(*dense_stacked_maps(A_list, B_list),
                                            Qd, Rd, m, n)
        phi_x, phi_u = closed_loop_maps(resp)
        worst = max(worst, float(np.max(np.abs(phi_u - phi_u_ref))),
                    float(np.max(np.abs(phi_x - phi_x_ref))))
    elapsed = time.perf_counter() - t0
    _verdict(4, "per-column solves equal the dense KKT solution",
             worst <= 1e-9 and elapsed < 5.0,
             f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_mug_sugar_benchmark():
    t0 = time.perf_counter()
    rep = bench_mug_sugar(trials=10, seed=0)
    elapsed = time.perf_counter() - t0
    ratio = rep.summary["mean_cost_ratio"]
    wins = rep.summary["esls_wins_all"]
    _verdict(5, "pouring task beats the receding-horizon baseline",
             wins and ratio <= 0.7 and elapsed < 30.0,
             f"all wins {wins}, cost ratio {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_06_memory_property_under_impulse():
    t0 = time.perf_counter()
    scenario = Scenario.from_dict(
        load_scenario(bundled_scenario_path("mug_sugar")).raw)
    plant = build_plant(scenario)
    cost = build_cost(scenario)
    system = linear_system_from_plant(plant, scenario.horizon)
    ctrl = extract_controller(solve_esls(system, cost))
    dp = dp_lqt(system, cost.diagonal_projection())

    m = plant.state_dim
    w = np.zeros((scenario.horizon + 1) * m)
    w[:m] = [0.0, 0.0, 0.1, 0.0, 0.0, 0.0]
    impulse = [(18, np.array([0.05, -0.03, 0.0, 0.0, 0.0, 0.0]))]
    from slsctrl.scenarios import correlation_residuals
    tr_sls = rollout(plant, ctrl, w=w, perturbations=impulse)
    tr_dp = rollout(plant, dp, w=w, perturbations=impulse)
    res_sls = max(r["residual"] for r in correlation_residuals(scenario, tr_sls))
    res_dp = max(r["residual"] for r in correlation_residuals(scenario, tr_dp))
    elapsed = time.perf_counter() - t0
    _verdict(6, "drop position remembers the perturbed approach",
             res_sls <= 1e-3 and res_dp >= 10 * res_sls and elapsed < 10.0,
             f"residual {res_sls:.2e} vs baseline {res_dp:.2e} "
             f"({res_dp / res_sls:.0f}x), {elapsed:.1f}s")


def test_criterion_07_pickplace_convergence():
    t0 = time.perf_counter()
    rep = bench_pickplace(trials=5, seed=0)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    worst_resid = 0.0
    worst_iters = 0
    for trial in rep.per_trial:
        costs = trial["cost_history"]
        ok = ok and all(c2 <= c1 for c1, c2 in zip(costs, costs[1:]))
        ok = ok and trial["converged"] and trial["iterations"] <= 100
        ok = ok and trial["stationarity"] <= 1e-6
        ok = ok and trial["place_residual"] <= 5e-3
        worst_resid = max(worst_resid, trial["place_residual"])
        worst_iters = max(worst_iters, trial["iterations"])
    _verdict(7, "arm pick-and-place converges with matched place height",
             ok,
             f"max place residual {worst_resid:.2e}, max iterations "
             f"{worst_iters}, {elapsed:.1f}s")


def test_criterion_08_lq_exactness_of_iterative_solver():
    rng = np.random.default_rng(108)
    worst = 0.0
    one_step = True
    for _ in range(20):
        T, m, n, A, B = _random_system(rng, T_max=10)
        cost, _, _ = _tracking_cost(rng, T, m, n, with_correlation=False)
        plant = LinearPlant(A, B)
        ctrl, res = isls_optimize(
            plant, TrackingObjective.from_costspec(cost), rng.normal(size=m),
            config=IslsConfig(regularization=0.0))
        one_step = one_step and res.iterations == 1 and res.converged
        st = TimeVaryingLinearSystem.constant(A, B, T)
        direct = extract_controller(solve_esls(st, cost))
        worst = max(worst,
                    float(np.max(np.abs(ctrl.K.dense - direct.K.dense))),
                    float(np.max(np.abs(ctrl.nominal_u + ctrl.k
                                        - ctrl.K.dense @ ctrl.nominal_x - direct.k))))
    _verdict(8, "one accepted iteration reproduces the direct synthesis",
             one_step and worst <= 1e-8,
             f"single step {one_step}, max controller gap {worst:.2e}")


def test_criterion_09_adaptation_equals_resolve():
    rng = np.random.default_rng(109)
    T, m, n = 12, 3, 2
    A = rng.normal(size=(m, m)) * 0.5
    B = rng.normal(size=(m, n))
    st = TimeVaryingLinearSystem.constant(A, B, T)
    times = (3, 7, T)
    weights = (4.0, 2.0, 9.0)
    targets = {t: rng.normal(size=m) for t in times}

    def cost_for(gs):
        return build_viapoint_cost(
            T, [(t, gs[t], w) for t, w in zip(times, weights)],
            0.3, state_dim=m, input_dim=n)

    base = cost_for(targets)
    ctrl = extract_controller(solve_esls(st, base))
    maps = precompute_gain_maps(st, base, ctrl)
    worst = 0.0
    adapt_s = resolve_s = 0.0
    for _ in range(50):
        edited = {t: g.copy() for t, g in targets.items()}
        edited[times[int(rng.integers(3))]] += rng.normal(size=m)
        cost_new = cost_for(edited)
        t0 = time.perf_counter()
        k_fast = adapt_feedforward(maps, cost_new.x_d, cost_new.u_d)
        adapt_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        k_ref = extract_controller(solve_esls(st, cost_new)).k
        resolve_s += time.perf_counter() - t0
        worst = max(worst, float(np.max(np.abs(k_fast - k_ref))))
    _verdict(9, "map-based retargeting equals a full re-solve",
             worst <= 1e-9,
             f"max gap {worst:.2e}; wall-clock adapt {adapt_s / 50 * 1e6:.1f} us "
             f"vs re-solve {resolve_s / 50 * 1e6:.1f} us per edit (informational)")


def test_criterion_10_derivative_checks():
    rng = np.random.default_rng(110)
    arm = planar_arm_plant([0.7, 0.5, 0.3], 0.05,
                           theta_lower=[-2.0] * 3, theta_upper=[2.0] * 3)
    worst_plant = 0.0
    for _ in range(100):
        th = rng.uniform(-1.8, 1.8, size=3)
        thd = rng.uniform(-1.0, 1.0, size=3)
        u = rng.uniform(-1.0, 1.0, size=3)
        z = arm.augment(th, thd)
        A, B = arm.jacobians(0, z, u)
        A_fd = fd_jacobian(lambda zz: arm.step(0, zz, u), z)
        B_fd = fd_jacobian(lambda uu: arm.step(0, z, uu), u)
        worst_plant = max(
            worst_plant,
            np.max(np.abs(A - A_fd)) / max(1.0, np.max(np.abs(A_fd))),
            np.max(np.abs(B - B_fd)) / max(1.0, np.max(np.abs(B_fd))))

    sc = StateCostFunction(
        lambda t, x: float(np.sqrt(1 + x[0] ** 2) + np.cos(x[1]) + x[2] ** 4),
        lambda t, x: np.array([x[0] / np.sqrt(1 + x[0] ** 2),
                               -np.sin(x[1]), 4 * x[2] ** 3]),
        lambda t, x: np.diag([(1 + x[0] ** 2) ** -1.5,
                              -np.cos(x[1]), 12 * x[2] ** 2]))
    worst_cost = 0.0
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=3)
        g = sc.gradient(0, x)
        H = sc.hessian(0, x)
        g_fd = fd_gradient(lambda xx: sc.value(0, xx), x)
        H_fd = fd_hessian(lambda xx: sc.value(0, xx), x)
        worst_cost = max(
            worst_cost,
            np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd))),
            np.max(np.abs(H - H_fd)) / max(1.0, np.max(np.abs(H_fd))))

    lower, upper = -np.ones(3), np.ones(3)
    worst_limit = 0.0
    checked = 0
    while checked < 100:
        th = rng.uniform(-2.0, 2.0, size=3)
        if np.min(np.abs(np.concatenate([th - lower, th - upper]))) < 1e-3:
            continue  # hinge kinks are not differentiable; stay clear
        checked += 1
        from slsctrl import joint_limit_violation
        J = joint_limit_violation_jacobian(th, lower, upper)
        J_fd = fd_jacobian(lambda t: joint_limit_violation(t, lower, upper), th)
        worst_limit = max(worst_limit, np.max(np.abs(np.diag(J_fd) - J))
                          / max(1.0, np.max(np.abs(J_fd))))

    ok = max(worst_plant, worst_cost, worst_limit) <= 1e-4
    _verdict(10, "analytic derivatives match finite differences",
             ok,
             f"plant {worst_plant:.2e}, cost {worst_cost:.2e}, "
             f"limits {worst_limit:.2e} (rel., 100 points each)")


def test_criterion_11_expectation_identities():
    rng = np.random.default_rng(111)
    n_samples = 100000
    worst_sigmas = 0.0
    for _ in range(3):
        d = int(rng.integers(2, 5))
        Aq = rng.normal(size=(d, d))
        aq = rng.normal(size=d)
        L = rng.normal(size=(d, d))
        Q = L @ L.T + 0.2 * np.eye(d)
        mu = rng.normal(size=d)
        Ls = rng.normal(size=(d, d))
        Sigma = Ls @ Ls.T + 0.1 * np.eye(d)

        closed = expected_quadratic(Aq, aq, Q, mu, Sigma)
        mc, se = mc_expected_quadratic(Aq, aq, Q, mu, Sigma, n_samples, rng)
        worst_sigmas = max(worst_sigmas, abs(closed - mc) / se)

        Bq = rng.normal(size=(d, d))
        bq = rng.normal(size=d)
        closed = expected_inner(Aq, aq, Bq, bq, mu, Sigma)
        mc, se = mc_expected_inner(Aq, aq, Bq, bq, mu, Sigma, n_samples, rng)
        worst_sigmas = max(worst_sigmas, abs(closed - mc) / se)
    _verdict(11, "closed-form expectations match Monte Carlo",
             worst_sigmas <= 3.0,
             f"max deviation {worst_sigmas:.2f} standard errors, "
             f"{n_samples} samples")
