"""Target retargeting through the precomputed feedforward maps."""

import time
import tracemalloc

import numpy as np
import numpy.testing as npt

import pytest

import slsctrl.adaptation
import slsctrl.solver
from slsctrl import (
    Controller,
    CorrelationSpec,
    IslsConfig,
    LinearPlant,
    StateCostFunction,
    TimeVaryingLinearSystem,
    TrackingObjective,
    adapt_feedforward,
    add_correlation,
    build_cost,
    build_plant,
    build_viapoint_cost,
    bundled_scenario_path,
    double_integrator_plant,
    dp_lqt,
    extract_controller,
    isls_optimize,
    linear_system_from_plant,
    linearize_plant,
    load_controller_artifact,
    load_scenario,
    planar_arm_plant,
    precompute_gain_maps,
    rollout,
    solve_esls,
    write_controller_artifact,
)
from slsctrl.isls import closed_loop_step
from slsctrl.solver import _transition_runs, held_states

from dense_views import dense_F_u, dense_F_x
from oracles import (
    dense_esls,
    dense_gain_maps,
    dense_stacked_maps,
    dense_tracking_pieces,
    planar_fk,
)


def _random_instance(rng, T=8, m=2, n=1, with_correlation=True):
    A = rng.normal(size=(m, m)) * 0.6
    B = rng.normal(size=(m, n))
    st = TimeVaryingLinearSystem.constant(A, B, T)
    vps = [(2, rng.normal(size=m), 3.0), (T, rng.normal(size=m), 10.0)]
    cost = build_viapoint_cost(T, vps, 0.4, state_dim=m, input_dim=n)
    if with_correlation:
        cost = add_correlation(cost, CorrelationSpec(
            1, T - 1, np.eye(m), rng.normal(size=m) * 0.1, 2.0 * np.eye(m)))
    return st, cost


def test_regulator_maps_give_zero_feedforward():
    rng = np.random.default_rng(0)
    T, m, n = 6, 2, 1
    A = rng.normal(size=(m, m)) * 0.5
    B = rng.normal(size=(m, n))
    st = TimeVaryingLinearSystem.constant(A, B, T)
    cost = build_viapoint_cost(T, [(t, np.zeros(m), 1.0) for t in range(T + 1)],
                               1.0, state_dim=m, input_dim=n)
    ctrl = extract_controller(solve_esls(st, cost))
    maps = precompute_gain_maps(st, cost, ctrl)
    npt.assert_allclose(maps.feedforward(np.zeros((T + 1) * m),
                                         np.zeros((T + 1) * n)),
                        np.zeros((T + 1) * n), atol=1e-14)
    npt.assert_allclose(ctrl.k, np.zeros((T + 1) * n), atol=1e-12)


def test_maps_reproduce_original_feedforward():
    rng = np.random.default_rng(1)
    for trial in range(8):
        st, cost = _random_instance(rng, with_correlation=trial % 2 == 0)
        ctrl = extract_controller(solve_esls(st, cost))
        maps = precompute_gain_maps(st, cost, ctrl)
        npt.assert_allclose(maps.feedforward(cost.x_d, cost.u_d), ctrl.k,
                            atol=1e-9)


def test_feedforward_matches_dense_gain_maps():
    # x_d through the stored F_x blocks, u_d through k_u0 and, once it moves
    # away from the synthesis u_d, the feedforward-only pass; time-varying
    # dynamics with and without a correlation, zero and random u_d
    rng = np.random.default_rng(8)
    T, m, n, cw = 9, 2, 2, 0.7
    for trial in range(6):
        A_list = [rng.normal(size=(m, m)) * 0.7 for _ in range(T + 1)]
        B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
        vps = [(t, rng.normal(size=m), float(rng.uniform(0.5, 2.0))) for t in (2, 5, T)]
        cost = build_viapoint_cost(T, vps, cw, state_dim=m, input_dim=n)
        corrs = []
        if trial % 2:
            spec = CorrelationSpec(1, T - 2, rng.normal(size=(m, m)), rng.normal(size=m),
                                   2.0 * np.eye(m))
            cost = add_correlation(cost, spec)
            corrs.append((1, T - 2, spec.C, spec.c, spec.Q_c))
        if trial >= 2:
            cost.u_d = rng.normal(size=(T + 1) * n)
        st = TimeVaryingLinearSystem(A_list, B_list)
        ctrl = extract_controller(solve_esls(st, cost))
        maps = precompute_gain_maps(st, cost, ctrl)

        S_x, S_u = dense_stacked_maps(A_list, B_list)
        Qd, bd, Rd, _ = dense_tracking_pieces(T, m, n, vps, corrs, control_weight=cw)
        K = dense_esls(S_x, S_u, Qd, Rd, bd, cost.u_d, m, n)[4]
        F_x, F_u = dense_gain_maps(S_u, Qd, Rd, K)
        unit = np.zeros((T + 1) * n)
        unit[int(rng.integers(unit.size))] = 1.0
        for x_d, u_d in [(cost.x_d, cost.u_d),
                         (rng.normal(size=(T + 1) * m), cost.u_d),
                         (cost.x_d, cost.u_d + unit),
                         (rng.normal(size=(T + 1) * m), rng.normal(size=(T + 1) * n))]:
            expected = F_x @ x_d + F_u @ u_d
            npt.assert_allclose(maps.feedforward(x_d, u_d), expected, rtol=0,
                                atol=1e-9 * np.abs(expected).max())
        npt.assert_allclose(maps.feedforward(cost.x_d, cost.u_d), ctrl.k, rtol=0,
                            atol=1e-9 * np.abs(ctrl.k).max())


def test_unchanged_input_target_skips_the_input_pass(monkeypatch):
    rng = np.random.default_rng(10)
    st, cost = _random_instance(rng)
    cost.u_d = rng.normal(size=cost.u_d.size)
    maps = precompute_gain_maps(st, cost, extract_controller(solve_esls(st, cost)))
    expected = dense_F_x(maps) @ cost.x_d + dense_F_u(maps) @ cost.u_d

    def no_pass(*args):
        raise AssertionError("the feedforward-only pass ran for an unchanged u_d")

    monkeypatch.setattr(slsctrl.adaptation, "feedforward_pass", no_pass)
    npt.assert_allclose(maps.feedforward(cost.x_d, cost.u_d.copy()), expected, atol=1e-9)


def test_precompute_runs_no_second_recursion(monkeypatch):
    # the maps come from the controller's own gains: no Riccati pass runs,
    # and the maps share the gains and inverse step Hessians
    rng = np.random.default_rng(12)
    st, cost = _random_instance(rng)
    resp = solve_esls(st, cost)
    ctrl = extract_controller(resp)

    def no_recursion(*args):
        raise AssertionError("precompute_gain_maps ran a second Riccati recursion")

    monkeypatch.setattr(slsctrl.solver, "riccati_gains", no_recursion)
    monkeypatch.setattr(slsctrl.adaptation, "riccati_gains", no_recursion, raising=False)
    maps = precompute_gain_maps(st, cost, ctrl)
    assert ctrl.hessian_inv is resp.controller.hessian_inv
    assert maps.controller.gains is ctrl.gains
    assert maps.controller.hessian_inv is ctrl.hessian_inv
    npt.assert_allclose(maps.feedforward(cost.x_d, cost.u_d), ctrl.k, atol=1e-9)
    # the extracted controller is a shallow copy: swapping its feedforward in
    # place leaves the response's as it was
    k_before = resp.controller.k
    ctrl.swap_feedforward(maps.feedforward(2.0 * cost.x_d, cost.u_d))
    assert ctrl.k is not k_before and resp.controller.k is k_before


def _map_columns(cost):
    """The (b, u_d) right-hand-side columns of the maps: Q's block columns, then u_d."""
    T1, m, n = cost.horizon + 1, cost.state_dim, cost.input_dim
    touched = sorted({j for (_, j) in cost.Q})
    b = np.zeros((T1, m, len(touched) * m + 1))
    for (i, j), blk in cost.Q.items():
        a = touched.index(j) * m
        b[i, :, a:a + m] = blk
    u_d = np.zeros((T1, n, b.shape[2]))
    u_d[..., -1] = cost.u_d.reshape(T1, n)
    return b, u_d


def _one_step_transition(system, held, t):
    """F_t with z_{t+1} = F_t [z_t; u_t], built for step t alone from its slots."""
    m, n = system.state_dim, system.input_dim
    slots, after = (t, *held[t]), (held[t + 1] if t + 1 < len(held) else ())
    M = m * len(slots)
    F = np.zeros((m * (1 + len(after)), M + n))
    F[:m, :m], F[:m, M:] = system.A[t], system.B[t]
    for a, s in enumerate(after, start=1):
        c = slots.index(s)
        F[a * m:(a + 1) * m, c * m:(c + 1) * m] = np.eye(m)
    return F


def _second_recursion(system, cost, b, u_d):
    """Feedforward columns of a whole held-state Riccati pass over (b, u_d).

    The gains are recomputed from A, B, Q and R with transitions built one
    step at a time, in the package's order of operations (G = F_t'P F_t,
    then the feedforward on the same F_t), so its columns are what a second
    recursion over the maps' right-hand sides would give.
    """
    T, m, n = system.horizon, system.state_dim, system.input_dim
    held = held_states(cost)
    F = [_one_step_transition(system, held, t) for t in range(T + 1)]
    gains, hinv, P = [None] * (T + 1), np.empty((T + 1, n, n)), np.zeros((m, m))
    for t in range(T, -1, -1):
        G = F[t].T @ (P @ F[t])
        M = G.shape[0] - n
        hinv[t] = np.linalg.inv(G[M:, M:] + cost.R[t])
        gains[t] = -hinv[t] @ G[M:, :M]
        P = G[:M, :M] + G[:M, M:] @ gains[t]
        for a, s in enumerate((t, *held[t])):
            Q = cost.Q.get((s, t))
            if Q is not None:
                P[a * m:(a + 1) * m, :m] += Q
                if a:
                    P[:m, a * m:(a + 1) * m] += Q.T
        P = (P + P.T) / 2
    g, p, Ru = np.empty((T + 1, n, b.shape[2])), np.zeros((m, b.shape[2])), cost.R @ u_d
    for t in range(T, -1, -1):
        q = F[t].T @ p
        g[t] = Ru[t] + q[-n:]
        p = q[:-n] + gains[t].T @ g[t]
        p[:m] += b[t]
    return hinv @ g


def test_maps_equal_a_second_recursion_bit_for_bit():
    # time-varying dynamics, 0-3 correlations (some sharing t1), random u_d
    rng = np.random.default_rng(13)
    T, m, n = 14, 3, 2
    for trial in range(8):
        A_list = [np.eye(m) + 0.3 * rng.normal(size=(m, m)) for _ in range(T + 1)]
        B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
        times = sorted(rng.choice(np.arange(1, T), size=2, replace=False).tolist()) + [T]
        vps = [(int(t), rng.normal(size=m), float(rng.uniform(0.5, 5.0))) for t in times]
        cost = build_viapoint_cost(T, vps, float(rng.uniform(0.1, 1.0)),
                                   state_dim=m, input_dim=n)
        for _ in range(trial % 4):
            t1, t2 = sorted(rng.choice(np.arange(T + 1), size=2, replace=False).tolist())
            cost = add_correlation(cost, CorrelationSpec(
                int(t1), int(t2), rng.normal(size=(m, m)), rng.normal(size=m),
                float(rng.uniform(0.5, 3.0)) * np.eye(m)))
        cost.u_d = rng.normal(size=(T + 1) * n)
        st = TimeVaryingLinearSystem(A_list, B_list)
        maps = precompute_gain_maps(st, cost, extract_controller(solve_esls(st, cost)))

        k = _second_recursion(st, cost, *_map_columns(cost)).reshape((T + 1) * n, -1)
        npt.assert_array_equal(maps.F_x_blocks, k[:, :-1])
        npt.assert_array_equal(maps.k_u0, k[:, -1])
        if trial % 4 == 0:   # no held states: the memoryless tracker carries the same gains
            dp = precompute_gain_maps(st, cost, dp_lqt(st, cost))
            npt.assert_array_equal(dp.F_x_blocks, maps.F_x_blocks)


def test_batched_transitions_equal_a_one_step_build():
    # 0-3 correlations, a shared t1, nested intervals, t1 = 0 and t2 = T
    rng = np.random.default_rng(16)
    T, m, n = 12, 3, 2
    st = TimeVaryingLinearSystem([rng.normal(size=(m, m)) for _ in range(T + 1)],
                                 [rng.normal(size=(m, n)) for _ in range(T + 1)])
    cases = [[], [(3, 8)], [(2, 6), (2, 9)], [(1, 10), (4, 6)], [(0, 5)], [(6, T)],
             [(0, T), (2, 6), (2, 9)], [(0, 4), (4, T), (5, 7)]]
    for intervals in cases:
        cost = build_viapoint_cost(T, [(T, rng.normal(size=m), 1.0)], 0.5,
                                   state_dim=m, input_dim=n)
        for t1, t2 in intervals:
            cost = add_correlation(cost, CorrelationSpec(
                t1, t2, rng.normal(size=(m, m)), rng.normal(size=m), np.eye(m)))
        held = held_states(cost)
        assert all(t1 in held[t] for t1, t2 in intervals for t in range(t1 + 1, t2 + 1))
        steps = []
        for t0, F in _transition_runs(st.A, st.B, held):
            for i, Ft in enumerate(F):
                steps.append(t0 + i)
                npt.assert_array_equal(Ft, _one_step_transition(st, held, t0 + i))
        assert sorted(steps) == list(range(T + 1))


def test_precompute_rejects_a_controller_without_the_gains(tmp_path):
    rng = np.random.default_rng(14)
    st, cost = _random_instance(rng)
    ctrl = extract_controller(solve_esls(st, cost))
    path = tmp_path / "controller.bin"
    write_controller_artifact(path, ctrl)

    st_nc, cost_nc = _random_instance(np.random.default_rng(14), with_correlation=False)
    st_long, cost_long = _random_instance(rng, T=9)
    st_wide, cost_wide = _random_instance(rng, n=2)
    # a controller read back from its artifact carries the inverse step
    # Hessians, so it gives the in-memory controller's maps bit for bit
    loaded, maps = load_controller_artifact(path), precompute_gain_maps(st, cost, ctrl)
    from_file = precompute_gain_maps(st, cost, loaded)
    npt.assert_array_equal(from_file.F_x_blocks, maps.F_x_blocks)
    npt.assert_array_equal(from_file.k_u0, maps.k_u0)
    u_d = np.random.default_rng(3).normal(size=cost.u_d.size)
    npt.assert_array_equal(from_file.feedforward(cost.x_d, u_d), maps.feedforward(cost.x_d, u_d))
    cases = [(None, st, cost, "got None"),
             (Controller(ctrl.K, ctrl.k), st, cost, "no inverse step Hessians"),
             (extract_controller(solve_esls(st_nc, cost_nc)), st, cost, r"holds timesteps \(\) at t=2"),
             (ctrl, st_long, cost_long, "horizon"),
             (ctrl, st_wide, cost_wide, "state/input sizes")]
    for controller, stacked, c, match in cases:
        with pytest.raises(ValueError, match=match):
            precompute_gain_maps(stacked, c, controller)


def _mug_maps():
    scenario = load_scenario(bundled_scenario_path("mug_sugar"))
    cost = build_cost(scenario)
    st = linear_system_from_plant(build_plant(scenario), scenario.horizon)
    return precompute_gain_maps(st, cost, extract_controller(solve_esls(st, cost))), cost


def test_non_finite_state_target_is_rejected_at_an_untouched_step():
    maps, cost = _mug_maps()
    m = cost.state_dim
    free = next(t for t in range(cost.horizon + 1) if t not in set(maps.touched.tolist()))
    x_d = cost.x_d.copy()
    x_d[free * m + 1] = np.nan
    with pytest.raises(ValueError, match=f"x_d is non-finite at step {free}$"):
        maps.feedforward(x_d, cost.u_d)


def test_infinite_input_target_is_rejected():
    maps, cost = _mug_maps()
    n = cost.input_dim
    u_d = cost.u_d.copy()
    u_d[7 * n] = np.inf
    with pytest.raises(ValueError, match="u_d is non-finite at step 7$"):
        maps.feedforward(cost.x_d, u_d)


def _array_bytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return sum(_array_bytes(v) for v in vars(obj).values()) if hasattr(obj, "__dict__") else 0


def test_map_storage_is_linear_in_horizon():
    # four touched timesteps at either horizon: the maps double with T, and
    # the precompute allocates nothing near a dense F_u (the synthesis runs
    # before tracing starts)
    rng = np.random.default_rng(11)
    plant = double_integrator_plant(3, 0.01)
    m, n = 6, 3

    def maps_at(T):
        vps = [(t, rng.normal(size=m), 10.0) for t in (T // 4, T // 2, T)]
        cost = build_viapoint_cost(T, vps, 1e-2, state_dim=m, input_dim=n)
        cost = add_correlation(cost, CorrelationSpec(T // 4, 3 * T // 4, np.eye(m),
                                                     np.zeros(m), 5.0 * np.eye(m)))
        st = linear_system_from_plant(plant, T)
        ctrl = extract_controller(solve_esls(st, cost))
        tracemalloc.start()
        try:
            maps = precompute_gain_maps(st, cost, ctrl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return maps, peak

    small, _ = maps_at(200)
    large, peak = maps_at(400)
    assert _array_bytes(large) <= 2.2 * _array_bytes(small)
    assert peak < (401 * n) ** 2 * 8 / 4


def test_superposition():
    rng = np.random.default_rng(2)
    st, cost = _random_instance(rng)
    ctrl = extract_controller(solve_esls(st, cost))
    maps = precompute_gain_maps(st, cost, ctrl)
    xd1 = rng.normal(size=cost.x_d.size)
    xd2 = rng.normal(size=cost.x_d.size)
    ud = np.zeros(cost.u_d.size)
    npt.assert_allclose(maps.feedforward(xd1 + xd2, ud),
                        maps.feedforward(xd1, ud) + maps.feedforward(xd2, ud),
                        atol=1e-12)


def test_noop_edit_keeps_feedforward_and_feedback():
    rng = np.random.default_rng(3)
    st, cost = _random_instance(rng)
    ctrl = extract_controller(solve_esls(st, cost))
    maps = precompute_gain_maps(st, cost, ctrl)
    adapted = ctrl.with_feedforward(maps.feedforward(cost.x_d, cost.u_d))
    assert adapted is not ctrl
    assert adapted.gains is ctrl.gains and adapted.held is ctrl.held
    npt.assert_allclose(adapted.k, ctrl.k, atol=1e-9)
    # and the original controller was not mutated
    k_before = ctrl.k.copy()
    ctrl.with_feedforward(maps.feedforward(2.0 * cost.x_d, cost.u_d))
    npt.assert_array_equal(ctrl.k, k_before)


def test_shifted_target_matches_full_resolve():
    rng = np.random.default_rng(4)
    T, m, n = 10, 2, 1
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    st = TimeVaryingLinearSystem.constant(A, B, T)
    goals = {4: np.array([0.4, 0.0]), T: np.array([-0.3, 0.0])}
    weights = {4: 50.0, T: 200.0}

    def make_cost(gs):
        return build_viapoint_cost(T, [(t, g, weights[t]) for t, g in gs.items()],
                                   0.05, state_dim=m, input_dim=n)

    cost = make_cost(goals)
    ctrl = extract_controller(solve_esls(st, cost))
    maps = precompute_gain_maps(st, cost, ctrl)

    shifted = dict(goals)
    shifted[T] = goals[T] + np.array([0.2, -0.1])
    cost_new = make_cost(shifted)

    t0 = time.perf_counter()
    k_fast = adapt_feedforward(maps, cost_new.x_d, cost_new.u_d)
    adapt_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    k_ref = extract_controller(solve_esls(st, cost_new)).k
    resolve_seconds = time.perf_counter() - t0
    npt.assert_allclose(k_fast, k_ref, atol=1e-9)
    print(f"\nadapt {adapt_seconds * 1e6:.1f} us vs re-solve "
          f"{resolve_seconds * 1e6:.1f} us")


def test_resolve_equivalence_over_many_edits():
    rng = np.random.default_rng(5)
    st, cost = _random_instance(rng, with_correlation=False)
    ctrl = extract_controller(solve_esls(st, cost))
    maps = precompute_gain_maps(st, cost, ctrl)
    T, m = cost.horizon, cost.state_dim
    vp_times = [t for t, _, _ in cost.viapoints]
    for _ in range(10):
        x_d_new = cost.x_d.copy()
        t_edit = vp_times[rng.integers(len(vp_times))]
        x_d_new[t_edit * m:(t_edit + 1) * m] += rng.normal(size=m)
        k_fast = adapt_feedforward(maps, x_d_new, cost.u_d)
        cost_edit = build_viapoint_cost(
            T, [(t, x_d_new[t * m:(t + 1) * m], w)
                for t, _, w in cost.viapoints],
            0.4, state_dim=m, input_dim=1)
        k_ref = extract_controller(solve_esls(st, cost_edit)).k
        npt.assert_allclose(k_fast, k_ref, atol=1e-9)
        npt.assert_array_equal(ctrl.K.dense,
                               extract_controller(solve_esls(st, cost_edit)).K.dense)


def test_unweighted_time_has_zero_column_strip():
    rng = np.random.default_rng(6)
    st, cost = _random_instance(rng, with_correlation=False)
    ctrl = extract_controller(solve_esls(st, cost))
    maps = precompute_gain_maps(st, cost, ctrl)
    m = cost.state_dim
    weighted = {t for t, _, _ in cost.viapoints}
    free = next(t for t in range(cost.horizon + 1) if t not in weighted)
    strip = slice(free * m, (free + 1) * m)
    F_x = dense_F_x(maps)
    assert np.max(np.abs(F_x[:, strip])) == 0.0
    x_d_new = cost.x_d.copy()
    x_d_new[strip] += 5.0  # moving an unweighted target is a no-op
    npt.assert_array_equal(adapt_feedforward(maps, x_d_new, cost.u_d),
                           adapt_feedforward(maps, cost.x_d, cost.u_d))
    # a weighted edit, by contrast, moves k exactly through its column strip
    t_w = max(weighted)
    strip_w = slice(t_w * m, (t_w + 1) * m)
    dx = rng.normal(size=m)
    x_d_new = cost.x_d.copy()
    x_d_new[strip_w] += dx
    delta = adapt_feedforward(maps, x_d_new, cost.u_d) \
        - adapt_feedforward(maps, cost.x_d, cost.u_d)
    npt.assert_allclose(delta, F_x[:, strip_w] @ dx, atol=1e-12)


def test_goal_tracking_after_adaptation():
    # residuals are linear in the target here (zero x0, zero input targets),
    # so rescaling the goal rescales the residual: the adapted controller
    # tracks the new goal to the same relative quality
    T, m, n = 12, 2, 1
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    st = TimeVaryingLinearSystem.constant(A, B, T)
    g = np.array([0.6, 0.0])
    cost = build_viapoint_cost(T, [(T, g, 500.0)], 0.05, state_dim=m, input_dim=n)
    ctrl = extract_controller(solve_esls(st, cost))
    maps = precompute_gain_maps(st, cost, ctrl)
    plant = LinearPlant(A, B)
    w = np.zeros((T + 1) * m)
    res0 = np.linalg.norm(rollout(plant, ctrl, w=w).states[T] - g)

    g_new = 1.05 * g
    cost_new = build_viapoint_cost(T, [(T, g_new, 500.0)], 0.05,
                                   state_dim=m, input_dim=n)
    adapted = ctrl.with_feedforward(maps.feedforward(cost_new.x_d, cost_new.u_d))
    res1 = np.linalg.norm(rollout(plant, adapted, w=w).states[T] - g_new)
    assert abs(res1 - res0) <= 0.1 * res0 + 1e-12


def test_mid_rollout_swap_matches_resolved_swap():
    rng = np.random.default_rng(7)
    T, m, n = 12, 2, 1
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    st = TimeVaryingLinearSystem.constant(A, B, T)
    g = np.array([0.5, 0.0])
    cost = build_viapoint_cost(T, [(T, g, 300.0)], 0.05, state_dim=m, input_dim=n)
    ctrl = extract_controller(solve_esls(st, cost))
    maps = precompute_gain_maps(st, cost, ctrl)

    g_new = np.array([0.3, 0.1])
    cost_new = build_viapoint_cost(T, [(T, g_new, 300.0)], 0.05,
                                   state_dim=m, input_dim=n)
    k_fast = adapt_feedforward(maps, cost_new.x_d, cost_new.u_d)
    k_ref = extract_controller(solve_esls(st, cost_new)).k

    plant = LinearPlant(A, B)
    w = 0.01 * rng.normal(size=(T + 1) * m)
    swap_at = T // 2
    tr_fast = rollout(plant, ctrl, w=w, feedforward_schedule=[(swap_at, k_fast)])
    tr_ref = rollout(plant, ctrl, w=w, feedforward_schedule=[(swap_at, k_ref)])
    npt.assert_allclose(tr_fast.states, tr_ref.states, atol=1e-6)
    npt.assert_allclose(tr_fast.inputs, tr_ref.inputs, atol=1e-6)
    # the swap actually changed the tail of the motion
    tr_stay = rollout(plant, ctrl, w=w)
    assert np.max(np.abs(tr_stay.states - tr_fast.states)) > 1e-3
    # and a no-op schedule leaves the trajectory untouched
    tr_noop = rollout(plant, ctrl, w=w, feedforward_schedule=[
        (swap_at, adapt_feedforward(maps, cost.x_d, cost.u_d))])
    npt.assert_allclose(tr_noop.states, tr_stay.states, atol=1e-9)


def test_vicinity_retargeting_on_arm():
    # small target edits in delta coordinates around a converged nonlinear
    # solve stay accurate without re-solving
    lengths = [0.8, 0.6]
    target = np.array([0.7, 0.5])
    arm = planar_arm_plant(lengths, 0.05)
    T = 30
    m = arm.state_dim
    g = np.zeros(m)
    g[4:6] = target
    wvec = np.zeros(m)
    wvec[4:6] = 1e4
    obj = TrackingObjective(
        T, m, arm.input_dim,
        StateCostFunction.quadratic_viapoints(T, [(T, g, wvec)], m),
        control_weight=1e-3)
    x0 = arm.augment(np.array([0.3, 0.4]), np.zeros(2))
    ctrl, res = isls_optimize(arm, obj, x0)
    assert res.converged

    x_hat = ctrl.nominal_x.reshape(T + 1, m)
    u_hat = ctrl.nominal_u.reshape(T + 1, -1)
    st = linearize_plant(arm, x_hat, u_hat)
    sub = obj.quadratize(x_hat, u_hat)
    maps = precompute_gain_maps(st, sub, ctrl)

    shift = np.array([0.03, -0.03])  # 4.2 cm, inside the trusted ball
    x_d_new = sub.x_d.copy()
    x_d_new[T * m + 4:T * m + 6] += shift
    k_new = adapt_feedforward(maps, x_d_new, sub.u_d)
    xs, _ = closed_loop_step(arm, ctrl, k_new, x_hat, u_hat)
    ee = planar_fk(lengths, xs[T, :2])
    assert np.linalg.norm(ee - (target + shift)) <= 1e-2
