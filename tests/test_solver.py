"""Closed-loop synthesis: held-state recursion, feedforward, controller extraction."""

import dataclasses
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from slsctrl import (
    BlockLowerTriangular,
    Controller,
    CorrelationSpec,
    LinearPlant,
    TimeVaryingLinearSystem,
    add_correlation,
    batch_lqt,
    build_viapoint_cost,
    double_integrator_plant,
    dp_lqt,
    extract_controller,
    linear_system_from_plant,
    precompute_gain_maps,
    rollout,
    solve_esls,
)
import slsctrl.isls
import slsctrl.solver
from slsctrl.bench import bundled_scenario_path
from slsctrl.isls import isls_optimize, linearize_plant
from slsctrl.scenarios import build_objective, build_plant, isls_config, load_scenario
from slsctrl.solver import check_law, feedforward_pass, held_states, riccati_gains

from dense_views import (
    achievability_residual,
    closed_loop_maps,
    dense_F_u,
    dense_F_x,
    dense_q,
    feedforward_residual,
)
from oracles import (
    dense_esls,
    dense_gain_maps,
    dense_plan,
    dense_stacked_maps,
    dense_tracking_pieces,
    kkt_feedback,
    riccati_regulator_gains,
    solve_sls_column,
)


def _regulator_cost(T, m, n, state_weight=1.0, control_weight=1.0):
    vps = [(t, np.zeros(m), state_weight) for t in range(T + 1)]
    return build_viapoint_cost(T, vps, control_weight, state_dim=m, input_dim=n)


def _random_tracking_cost(rng, T, m, n, with_correlation=False):
    times = rng.choice(T + 1, size=min(3, T + 1), replace=False)
    vps = [(int(t), rng.normal(size=m), float(rng.uniform(0.5, 2.0))) for t in times]
    cost = build_viapoint_cost(T, vps, float(rng.uniform(0.3, 1.5)),
                               state_dim=m, input_dim=n)
    corrs = []
    if with_correlation and T >= 3:
        L = rng.normal(size=(m, m))
        spec = CorrelationSpec(1, T - 1, rng.normal(size=(m, m)),
                               rng.normal(size=m), L @ L.T + 0.1 * np.eye(m))
        cost = add_correlation(cost, spec)
        corrs.append((1, T - 1, spec.C, spec.c, spec.Q_c))
    return cost, [(t, g, w) for t, g, w in vps], corrs


def test_one_step_scalar_closed_form():
    # A=B=1, T=1, Q=R=I: the single Riccati step gives K = -1/2, so the
    # disturbance response is phi_u = (-1/2, 0), phi_x = (1, 1/2)
    st = TimeVaryingLinearSystem.constant(np.array([[1.0]]), np.array([[1.0]]), 1)
    cost = _regulator_cost(1, 1, 1)
    resp = solve_esls(st, cost)
    phi_x, phi_u = closed_loop_maps(resp)
    npt.assert_allclose(phi_u[:, 0], [-0.5, 0.0], atol=1e-12)
    npt.assert_allclose(phi_x[:, 0], [1.0, 0.5], atol=1e-12)
    ctrl = extract_controller(resp)
    npt.assert_allclose(ctrl.K.dense[:1, :1], [[-0.5]], atol=1e-12)
    gains = riccati_regulator_gains(np.array([[1.0]]), np.array([[1.0]]),
                                    np.eye(1), np.eye(1), 1)
    npt.assert_allclose(gains[0], [[-0.5]], atol=1e-14)


def test_zero_state_cost_gives_open_loop():
    rng = np.random.default_rng(0)
    T, m, n = 5, 2, 1
    system = TimeVaryingLinearSystem.constant(
        rng.normal(size=(m, m)) * 0.5, rng.normal(size=(m, n)), T)
    cost = build_viapoint_cost(T, [], 1.0, state_dim=m, input_dim=n)
    phi_x, phi_u = closed_loop_maps(solve_esls(system, cost))
    assert np.max(np.abs(phi_u)) < 1e-12
    S_x, _ = dense_stacked_maps(system.A, system.B)
    npt.assert_allclose(phi_x, S_x, atol=1e-12)


def test_columns_match_dense_kkt_oracle():
    rng = np.random.default_rng(1)
    for trial in range(8):
        T = int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        A_list = [rng.normal(size=(m, m)) * 0.7 for _ in range(T + 1)]
        B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
        st = TimeVaryingLinearSystem(A_list, B_list)
        cost, vps, corrs = _random_tracking_cost(rng, T, m, n,
                                                 with_correlation=(trial % 2 == 0))
        resp = solve_esls(st, cost)
        Qd, _, Rd, _ = dense_tracking_pieces(T, m, n, vps, corrs,
                                             control_weight=cost.R[0])
        phi_x_ref, phi_u_ref = kkt_feedback(*dense_stacked_maps(A_list, B_list),
                                            Qd, Rd, m, n)
        phi_x, phi_u = closed_loop_maps(resp)
        npt.assert_allclose(phi_u, phi_u_ref, atol=1e-9)
        npt.assert_allclose(phi_x, phi_x_ref, atol=1e-9)
        assert achievability_residual(st, phi_x, phi_u) <= 1e-10
        assert feedforward_residual(st, resp.d_x, resp.d_u) <= 1e-10
        assert max(resp.residuals().values()) <= 1e-10


def test_single_column_solver_agrees_with_full_solve():
    rng = np.random.default_rng(2)
    T, m, n = 6, 2, 2
    st = TimeVaryingLinearSystem.constant(
        rng.normal(size=(m, m)) * 0.4, rng.normal(size=(m, n)), T)
    cost, _, _ = _random_tracking_cost(rng, T, m, n, with_correlation=True)
    phi_x, phi_u = closed_loop_maps(solve_esls(st, cost))
    for col in (0, 3, T):
        phi_x_col, phi_u_col = solve_sls_column(st, cost, col)
        sl = slice(col * m, (col + 1) * m)
        npt.assert_allclose(phi_u_col, phi_u[:, sl], atol=1e-10)
        npt.assert_allclose(phi_x_col, phi_x[:, sl], atol=1e-10)


def test_regulator_has_zero_feedforward():
    rng = np.random.default_rng(3)
    T, m, n = 5, 3, 2
    st = TimeVaryingLinearSystem.constant(
        rng.normal(size=(m, m)) * 0.5, rng.normal(size=(m, n)), T)
    cost = _regulator_cost(T, m, n)
    resp = solve_esls(st, cost)
    assert np.max(np.abs(resp.d_u)) < 1e-12
    assert np.max(np.abs(resp.d_x)) < 1e-12
    ctrl = extract_controller(resp)
    assert np.max(np.abs(ctrl.k)) < 1e-12


def test_feedback_factorization_and_nominal_rollout():
    rng = np.random.default_rng(4)
    T, m, n = 7, 2, 1
    A = rng.normal(size=(m, m)) * 0.5
    B = rng.normal(size=(m, n))
    st = TimeVaryingLinearSystem.constant(A, B, T)
    cost, _, _ = _random_tracking_cost(rng, T, m, n, with_correlation=True)
    resp = solve_esls(st, cost)
    ctrl = extract_controller(resp)
    # phi_u = K phi_x by construction of the extraction
    phi_x, phi_u = closed_loop_maps(resp)
    npt.assert_allclose(ctrl.K.dense @ phi_x, phi_u, atol=1e-8)
    # zero disturbances: the closed loop reproduces the feedforward plan
    traj = rollout(LinearPlant(A, B), ctrl, w=np.zeros((T + 1) * m))
    npt.assert_allclose(traj.states.reshape(-1), resp.d_x, atol=1e-10)
    npt.assert_allclose(traj.inputs.reshape(-1), resp.d_u, atol=1e-10)


def test_closed_loop_matches_dp_rollouts():
    # block-diagonal weights: the memoryless DP solution is optimal too, so
    # both rollouts must coincide from any disturbance realization
    rng = np.random.default_rng(5)
    for _ in range(6):
        T = int(rng.integers(3, 10))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        A = rng.normal(size=(m, m)) * 0.6
        B = rng.normal(size=(m, n))
        system = TimeVaryingLinearSystem.constant(A, B, T)
        cost, _, _ = _random_tracking_cost(rng, T, m, n, with_correlation=False)
        resp = solve_esls(system, cost)
        esls_ctrl = extract_controller(resp)
        dp_ctrl = dp_lqt(system, cost)
        plant = LinearPlant(A, B)
        w = rng.normal(size=(T + 1) * m) * 0.3
        tr_a = rollout(plant, esls_ctrl, w=w)
        tr_b = rollout(plant, dp_ctrl, w=w)
        npt.assert_allclose(tr_a.states, tr_b.states, atol=1e-8)


def test_batch_plan_zero_problem():
    rng = np.random.default_rng(6)
    T, m, n = 5, 2, 1
    st = TimeVaryingLinearSystem.constant(
        rng.normal(size=(m, m)) * 0.5, rng.normal(size=(m, n)), T)
    cost = _regulator_cost(T, m, n)
    npt.assert_allclose(batch_lqt(st, cost), np.zeros((T + 1) * n), atol=1e-12)


def test_batch_plan_vs_dense_oracle_and_feedforward():
    rng = np.random.default_rng(7)
    for trial in range(8):
        T = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        A = rng.normal(size=(m, m)) * 0.6
        B = rng.normal(size=(m, n))
        st = TimeVaryingLinearSystem.constant(A, B, T)
        cost, vps, corrs = _random_tracking_cost(rng, T, m, n,
                                                 with_correlation=(trial % 2 == 0))
        x0 = rng.normal(size=m)
        u_hat = batch_lqt(st, cost, x0=x0)
        Qd, bd, Rd, u_d = dense_tracking_pieces(T, m, n, vps, corrs,
                                                control_weight=cost.R[0])
        w = np.zeros((T + 1) * m)
        w[:m] = x0
        S_x, S_u = dense_stacked_maps([A] * (T + 1), [B] * (T + 1))
        npt.assert_allclose(u_hat, dense_plan(S_x, S_u, Qd, bd, Rd, u_d, w), atol=1e-8)
        # with x0 = 0 and u_d = 0 the open-loop plan is the feedforward
        resp = solve_esls(st, cost)
        npt.assert_allclose(batch_lqt(st, cost), resp.d_u, atol=1e-9)


def test_package_runs_without_scipy():
    # scipy is a test dependency only: with the module made unimportable the
    # package still imports, synthesizes, plans and simulates
    code = f"""
import sys
sys.modules["scipy"] = None
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
import numpy as np
import slsctrl as sc
T = 8
plant = sc.double_integrator_plant(1, 0.1)
cost = sc.build_viapoint_cost(T, [(T, np.array([1.0, 0.0]), 1.0)], 1e-2,
                              state_dim=2, input_dim=1)
system = sc.linear_system_from_plant(plant, T)
controller = sc.extract_controller(sc.solve_esls(system, cost))
sc.batch_lqt(system, cost, x0=np.ones(2))
sc.rollout(plant, controller, x0=np.ones(2))
sc.rollout(plant, sc.dp_lqt(system, cost), x0=np.ones(2))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_solution_independent_of_noise_scale():
    # the synthesis minimizes an expectation over disturbances whose scale
    # multiplies each column's objective; per-column optimizers are invariant
    rng = np.random.default_rng(8)
    T, m, n = 5, 2, 1
    system = TimeVaryingLinearSystem.constant(
        rng.normal(size=(m, m)) * 0.5, rng.normal(size=(m, n)), T)
    cost, vps, corrs = _random_tracking_cost(rng, T, m, n, with_correlation=True)
    resp = solve_esls(system, cost)
    Qd, _, Rd, _ = dense_tracking_pieces(T, m, n, vps, corrs,
                                         control_weight=cost.R[0])
    phi_x_ref, phi_u_ref = kkt_feedback(*dense_stacked_maps(system.A, system.B),
                                        Qd, Rd, m, n)
    npt.assert_allclose(closed_loop_maps(resp)[1], phi_u_ref, atol=1e-9)


def _assert_rel(actual, expected, rtol):
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


def test_recursion_matches_dense_oracle():
    # time-varying dynamics with 0-3 correlations: shared t1, nested and
    # touching intervals, t1 = 0 and t2 = T, scalar and matrix input weights;
    # the retarget maps are checked against dense normal equations as well
    rng = np.random.default_rng(9)
    T = 10
    layouts = [
        [],
        [(2, 6), (2, T)],
        [(1, T - 1), (3, 5)],
        [(0, 4), (4, T)],
        [(0, T), (2, 5), (5, 8)],
        [(3, 7), (3, 7)],
    ]
    for trial, layout in enumerate(layouts * 2):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        A_list = [rng.normal(size=(m, m)) * 0.7 for _ in range(T + 1)]
        B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
        if trial % 2:
            L = rng.normal(size=(n, n))
            cw = L @ L.T + 0.2 * np.eye(n)
        else:
            cw = float(rng.uniform(0.3, 1.5))
        vps = [(int(t), rng.normal(size=m), float(rng.uniform(0.5, 2.0)))
               for t in rng.choice(T + 1, size=3, replace=False)]
        cost = build_viapoint_cost(T, vps, cw, state_dim=m, input_dim=n)
        corrs = []
        for t1, t2 in layout:
            L = rng.normal(size=(m, m))
            spec = CorrelationSpec(t1, t2, rng.normal(size=(m, m)), rng.normal(size=m),
                                   L @ L.T + 0.1 * np.eye(m))
            cost = add_correlation(cost, spec)
            corrs.append((t1, t2, spec.C, spec.c, spec.Q_c))
        if trial >= len(layouts):
            cost.u_d = rng.normal(size=(T + 1) * n)
        st = TimeVaryingLinearSystem(A_list, B_list)
        resp = solve_esls(st, cost)
        ctrl = extract_controller(resp)
        maps = precompute_gain_maps(st, cost, ctrl)

        S_x, S_u = dense_stacked_maps(A_list, B_list)
        Qd, bd, Rd, _ = dense_tracking_pieces(T, m, n, vps, corrs, control_weight=cw)
        phi_x, phi_u, d_x, d_u, K, k = dense_esls(S_x, S_u, Qd, Rd, bd, cost.u_d, m, n)
        F_x, F_u = dense_gain_maps(S_u, Qd, Rd, K)
        resp_phi_x, resp_phi_u = closed_loop_maps(resp)
        for actual, expected in [(resp_phi_x, phi_x), (resp_phi_u, phi_u),
                                 (resp.d_x, d_x), (resp.d_u, d_u),
                                 (ctrl.K.dense, K), (ctrl.k, k),
                                 (dense_F_x(maps), F_x), (dense_F_u(maps), F_u)]:
            _assert_rel(actual, expected, 1e-9)
        # correlations that share t1 share one held state
        assert max(len(h) for h in resp.controller.held) == max(
            len({t1 for t1, t2 in layout if t1 < t <= t2}) for t in range(T + 1))


def test_synthesis_rejects_nonfinite_data():
    T, m, n = 4, 2, 1

    def problem():
        system = TimeVaryingLinearSystem.constant(0.5 * np.eye(m), np.ones((m, n)), T)
        cost = build_viapoint_cost(T, [(T, np.ones(m), 1.0)], 1.0, state_dim=m, input_dim=n)
        return system, cost

    def poison_a(system, cost):
        system.A[2][0, 0] = np.nan

    def poison_b(system, cost):
        system.B[1][0, 0] = np.inf

    def poison_q(system, cost):
        cost.Q[(T, T)][1, 1] = np.nan

    def poison_r(system, cost):
        cost.R[3][0, 0] = np.nan

    def poison_lin(system, cost):
        cost._lin[T * m] = np.inf

    def poison_ud(system, cost):
        cost.u_d[0] = np.nan

    for poison, message in [(poison_a, "A_t at t=2"), (poison_b, "B_t at t=1"),
                            (poison_q, r"Q block \(4, 4\)"), (poison_r, "R_t at t=3"),
                            (poison_lin, "linear term at t=4"), (poison_ud, "u_d at t=0")]:
        system, cost = problem()
        poison(system, cost)
        with pytest.raises(ValueError, match="non-finite " + message):
            solve_esls(system, cost)


def test_synthesis_names_a_non_finite_q_block_between_others():
    # all Q blocks are checked at once; a failure still names the bad block,
    # here neither the first nor the last one
    T, m, n = 6, 2, 1
    system = TimeVaryingLinearSystem.constant(0.5 * np.eye(m), np.ones((m, n)), T)
    cost = build_viapoint_cost(T, [(t, np.ones(m), 1.0) for t in (1, 3, T)], 1.0,
                               state_dim=m, input_dim=n)
    assert list(cost.Q) == [(1, 1), (3, 3), (T, T)]
    cost.Q[(3, 3)][0, 1] = np.nan
    with pytest.raises(ValueError, match=r"non-finite Q block \(3, 3\)$"):
        solve_esls(system, cost)


def test_indefinite_step_hessian_names_timestep():
    # B_3 = 0 and R_3 = 0 leave the step-3 input with no curvature at all
    T, m, n = 6, 2, 1
    system = TimeVaryingLinearSystem.constant(0.5 * np.eye(m), np.ones((m, n)), T)
    system.B[3][:] = 0.0
    cost = build_viapoint_cost(T, [(T, np.ones(m), 1.0)], 1.0, state_dim=m, input_dim=n)
    cost.R[3] = 0.0
    with pytest.raises(ValueError, match="t=3 is not positive definite"):
        solve_esls(system, cost)
    with pytest.raises(ValueError, match="t=3 is not positive definite"):
        dp_lqt(system, cost)


def _non_pd_problem(T, bad, correlations, A=0.9, B=None, r=-3.0):
    """Two-input problem whose control weight at each step in ``bad`` is diag(1, r)."""
    m, n = 2, 2
    system = TimeVaryingLinearSystem.constant(
        A * np.eye(m), np.ones((m, n)) + np.eye(m, n) if B is None else B, T)
    cost = build_viapoint_cost(T, [(T // 2, np.ones(m), 2.0), (T, np.ones(m), 1.0)], 1.0,
                               state_dim=m, input_dim=n)
    for t1, t2 in correlations:
        cost = add_correlation(cost, CorrelationSpec(t1, t2, np.eye(m), np.zeros(m), np.eye(m)))
    for t in bad:
        cost.R[t] = np.diag([1.0, r])
    return system, cost


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_indefinite_invertible_step_hessian_with_held_states_names_largest_t():
    # H_7 and H_3 are indefinite but invertible and both steps hold states;
    # the recursion meets t=7 first, and the message names it
    system, cost = _non_pd_problem(12, [7, 3], [(2, 9), (1, 5)])
    assert held_states(cost)[7] and held_states(cost)[3]
    with pytest.raises(ValueError, match="t=7 is not positive definite"):
        solve_esls(system, cost)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_pd_step_hessian_at_the_ends_of_the_horizon():
    for bad, corr in [(12, (2, 12)), (0, (0, 6))]:
        system, cost = _non_pd_problem(12, [bad], [corr])
        assert held_states(cost)[max(bad, 1)]
        with pytest.raises(ValueError, match=f"t={bad} is not positive definite"):
            solve_esls(system, cost)
        system, cost = _non_pd_problem(12, [bad], [])
        with pytest.raises(ValueError, match=f"t={bad} is not positive definite"):
            dp_lqt(system, cost)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recursion_past_a_non_pd_step_emits_no_warning():
    # with no input before t=250 and A = 50 I, the cost-to-go past the
    # indefinite H_250 grows by 2500 per step and overflows; the error
    # still names t=250, and no overflow warning leaks.  r = 0 makes H_250
    # exactly singular instead.
    B = np.eye(2)
    for r in (-1.0, 0.0):
        system, cost = _non_pd_problem(300, [250], [(100, 290)], A=50.0, B=B, r=r)
        system.B[:251] = 0.0
        with pytest.raises(ValueError, match="t=250 is not positive definite"):
            solve_esls(system, cost)


def test_stationarity_residual_detects_scaled_feedforward():
    rng = np.random.default_rng(10)
    T, m, n = 40, 4, 2
    A_list = [np.eye(m) + 0.1 * rng.normal(size=(m, m)) for _ in range(T + 1)]
    B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
    st = TimeVaryingLinearSystem(A_list, B_list)
    cost, _, _ = _random_tracking_cost(rng, T, m, n, with_correlation=True)
    resp = solve_esls(st, cost)
    genuine = resp.residuals()
    scaled = (resp.d_x * (1 + 1e-6), resp.d_u * (1 + 1e-6))
    wrong = resp.stationarity(scaled)
    # the scaled plan is still a trajectory of the dynamics, so only
    # stationarity can tell it from the optimum
    assert feedforward_residual(st, *scaled) <= 1e-12
    assert genuine["stationarity"] <= 1e-11
    assert wrong >= 1e-7


def test_plan_is_computed_once_on_first_read(monkeypatch):
    rng = np.random.default_rng(14)
    T, m, n = 30, 3, 2
    st = TimeVaryingLinearSystem([np.eye(m) + 0.1 * rng.normal(size=(m, m)) for _ in range(T + 1)],
                                 [rng.normal(size=(m, n)) for _ in range(T + 1)])
    cost, _, _ = _random_tracking_cost(rng, T, m, n, with_correlation=True)
    calls, run = [], slsctrl.solver._run_policy
    monkeypatch.setattr(slsctrl.solver, "_run_policy",
                        lambda *args: calls.append(args) or run(*args))
    resp = solve_esls(st, cost)
    assert calls == []
    d_x, d_u = resp.d_x, resp.d_u
    assert resp.d_x is d_x and resp.d_u is d_u and len(calls) == 1
    # the kept plan is the policy's trajectory from x_0 = 0
    xs, us = run(st, resp.controller, np.zeros(m))
    npt.assert_array_equal(d_x, xs.ravel())
    npt.assert_array_equal(d_u, us.ravel())
    # a response with another law does not inherit the plan already read
    halved = dataclasses.replace(resp, controller=resp.controller.with_feedforward(
        0.5 * resp.controller.k))
    npt.assert_array_equal(halved.d_u, run(st, halved.controller, np.zeros(m))[1].ravel())
    assert len(calls) == 2 and not np.array_equal(halved.d_u, d_u)


def _long_request(seed, T=400):
    # a 3-D double integrator at T=400 with three viapoints and two
    # correlations, the shape of the benchmark's long-horizon requests
    rng = np.random.default_rng(seed)
    d, m = 3, 6
    w = np.diag(np.r_[1e4 * np.ones(d), 1e2 * np.ones(d)])
    vps = [(t, np.r_[rng.uniform(-0.5, 0.5, d), np.zeros(d)], w)
           for t in (*sorted(rng.choice(np.arange(20, T), 2, replace=False)), T)]
    cost = build_viapoint_cost(T, vps, 1e-2, state_dim=m, input_dim=d)
    for _ in range(2):
        t1, t2 = sorted(rng.choice(np.arange(10, T + 1), 2, replace=False))
        cost = add_correlation(cost, CorrelationSpec(
            int(t1), int(t2), np.eye(m), np.r_[rng.uniform(-0.1, 0.1, d), np.zeros(d)],
            np.diag(np.r_[1e4 * np.ones(d), np.zeros(d)])))
    st = linear_system_from_plant(double_integrator_plant(d, 0.01), T)
    return st, solve_esls(st, cost)


def test_residuals_allocate_no_dense_temporaries():
    # both checks are O(T) passes: no closed-loop map or stacked operator
    # is built (the dense phi maps alone take 69 MB here)
    st, resp = _long_request(11)
    tracemalloc.start()
    try:
        res = resp.residuals()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert set(res) == {"stationarity", "gain_stationarity"}
    assert max(res.values()) <= 1e-10


def test_gain_stationarity_detects_perturbed_gains():
    # the plan is untouched, so stationarity cannot see a wrong gain.  On
    # eight seeded requests genuine solves read 1e-15 to 7e-13, a zeroed
    # memory block 4e-5 to 0.8, and one step's gain block scaled by 1 + 1e-6
    # 1.4e-10 to 1.2e-7
    for seed in (12, 13):
        st, resp = _long_request(seed)
        assert resp.gain_stationarity() <= 1e-12
        plan = resp.plan   # the genuine plan, passed with each wrong law
        m = st.state_dim
        law = resp.controller
        memory = [t for t, h in enumerate(law.held) if h]
        t = memory[len(memory) // 2]
        for block, factor, floor in [(slice(m, 2 * m), 0.0, 1e-5),
                                     (slice(None), 1 + 1e-6, 1e-11)]:
            gains = [g.copy() for g in law.gains]
            gains[t][:, block] *= factor
            wrong = dataclasses.replace(
                resp, controller=Controller.from_gains(law.held, gains, law.k))
            assert wrong.stationarity(plan) == resp.stationarity()
            assert wrong.gain_stationarity() >= floor


def _law_request(seed, correlations, T=60, control_weight=1e-2):
    # a 2-D double integrator with three viapoints and ``correlations``
    # position correlations; the seed fixes the viapoints whatever the rest
    rng = np.random.default_rng(seed)
    d, m = 2, 4
    w = np.diag(np.r_[1e4 * np.ones(d), 1e2 * np.ones(d)])
    vps = [(t, np.r_[rng.uniform(-0.5, 0.5, d), np.zeros(d)], w) for t in (15, 40, T)]
    cost = build_viapoint_cost(T, vps, control_weight, state_dim=m, input_dim=d)
    for _ in range(correlations):
        t1, t2 = sorted(rng.choice(np.arange(5, T + 1), 2, replace=False))
        cost = add_correlation(cost, CorrelationSpec(
            int(t1), int(t2), np.eye(m), np.zeros(m), np.diag(np.r_[1e4 * np.ones(d),
                                                                    np.zeros(d)])))
    return linear_system_from_plant(double_integrator_plant(d, 0.01), T), cost


def test_check_law_accepts_genuine_laws_and_names_what_differs():
    for correlations in range(4):
        st, cost = _law_request(correlations, correlations)
        check_law(st, cost, solve_esls(st, cost).controller)
    st, cost = _law_request(3, 3)
    projected = cost.diagonal_projection()
    check_law(st, projected, dp_lqt(st, projected))
    tenfold, no_correlation = _law_request(3, 3, control_weight=0.1), _law_request(3, 0)
    shorter = _law_request(3, 3, T=50)
    for (system, other), match in [(tenfold, "gain_stationarity .* exceeds 1e-08"),
                                   (no_correlation, r"controller holds timesteps \(\) at t="),
                                   (shorter, r"horizon and state/input sizes \(50, 4, 2\)")]:
        with pytest.raises(ValueError, match=match):
            check_law(st, cost, solve_esls(system, other).controller)


def _held_by_definition(cost):
    """held_states by its definition: s < t with a cost block (s, j), j >= t."""
    return [tuple(sorted({min(i, j) for (i, j) in cost.Q if min(i, j) < t <= max(i, j)}))
            for t in range(cost.horizon + 1)]


def test_held_states_match_their_definition():
    # fixed patterns (a shared t1, nested and adjacent intervals, t1 = 0 and
    # t2 = T) and seeded ones of 0-3 correlations
    rng = np.random.default_rng(22)
    T, m = 30, 2
    patterns = [[], [(0, T)], [(5, 20), (5, 12)], [(3, 25), (8, 15)], [(4, 10), (10, 18)],
                [(0, 7), (7, T), (2, T)], [(T - 1, T)]]
    for _ in range(20):
        pairs = [sorted(rng.choice(T + 1, size=2, replace=False).tolist())
                 for _ in range(rng.integers(0, 4))]
        patterns.append([(int(a), int(b)) for a, b in pairs])
    for pairs in patterns:
        cost = build_viapoint_cost(T, [(T, np.zeros(m), 1.0)], 1.0, state_dim=m, input_dim=1)
        for t1, t2 in pairs:
            cost = add_correlation(cost, CorrelationSpec(t1, t2, np.eye(m), np.zeros(m),
                                                         np.eye(m)))
        assert held_states(cost) == _held_by_definition(cost), pairs


def test_from_gains_names_the_first_bad_step():
    # one check covers every block; a failure still names the first bad t
    rng = np.random.default_rng(23)
    T, m, n = 20, 3, 2
    st = TimeVaryingLinearSystem.constant(np.eye(m) + 0.1 * rng.normal(size=(m, m)),
                                          rng.normal(size=(m, n)), T)
    cost, _, _ = _random_tracking_cost(rng, T, m, n, with_correlation=True)
    law = solve_esls(st, cost).controller
    middle, late = T // 2, T - 2
    nan_middle = [g.copy() for g in law.gains]
    nan_middle[middle][0, -1] = np.nan
    short_late = [g.copy() for g in law.gains]
    short_late[late] = short_late[late][:, :-1]
    both = [g.copy() for g in short_late]
    both[middle] = nan_middle[middle]
    for gains, t in [(nan_middle, middle), (short_late, late), (both, middle)]:
        with pytest.raises(ValueError, match=f"gain block at t={t} must be finite, shape"):
            Controller.from_gains(law.held, gains, law.k)


def test_history_reads_match_the_gather_of_every_index():
    # steps holding no state read x_t through a slice, the others gather; the
    # dense K, control and _run_policy equal, byte for byte, the same reads
    # through explicit index arrays
    rng = np.random.default_rng(15)
    T, m, n = 12, 2, 1
    system = TimeVaryingLinearSystem.constant(rng.normal(size=(m, m)) * 0.5,
                                              rng.normal(size=(m, n)), T)
    cost = build_viapoint_cost(T, [(4, rng.normal(size=m), 2.0), (T, rng.normal(size=m), 1.0)],
                               0.7, state_dim=m, input_dim=n)
    cost = add_correlation(cost, CorrelationSpec(3, 8, rng.normal(size=(m, m)),
                                                 rng.normal(size=m), np.eye(m)))
    law = solve_esls(system, cost).controller
    ctrl = Controller.from_gains(law.held, law.gains, law.k, rng.normal(size=(T + 1) * m),
                                 rng.normal(size=(T + 1) * n), law.hessian_inv)
    ar = np.arange(m)
    gather = [np.concatenate([m * s + ar for s in (t, *h)]) for t, h in enumerate(ctrl.held)]
    held = [bool(h) for h in ctrl.held]
    assert any(held) and not all(held)
    assert [isinstance(i, slice) for i in ctrl._idx] == [not h for h in held]
    K = np.zeros(((T + 1) * n, (T + 1) * m))
    for t, idx in enumerate(gather):
        K[t * n:(t + 1) * n, idx] = ctrl.gains[t]
    assert ctrl.K.dense.tobytes() == K.tobytes()
    xs = rng.normal(size=(T + 1) * m)
    for t, idx in enumerate(gather):
        u = (ctrl.gains[t] @ (xs[idx] - ctrl.nominal_x[idx]) + ctrl.k[t * n:(t + 1) * n]
             + ctrl.nominal_u[t * n:(t + 1) * n])
        assert ctrl.control(t, xs[:(t + 1) * m]).tobytes() == u.tobytes()
    for x0, k in ((rng.normal(size=m), None),
                  (rng.normal(size=(m, 3)), rng.normal(size=(T + 1, n, 3)))):
        kk = ctrl.k.reshape(T + 1, n) if k is None else k
        x = np.zeros(((T + 1) * m, *np.shape(x0)[1:]))
        x[:m] = x0
        us = np.zeros((T + 1, n, *np.shape(x0)[1:]))
        for t, idx in enumerate(gather):
            us[t] = ctrl.gains[t] @ x[idx] + kk[t]
            if t < T:
                x[(t + 1) * m:(t + 2) * m] = system.A[t] @ x[t * m:(t + 1) * m] + system.B[t] @ us[t]
        got_x, got_u = slsctrl.solver._run_policy(system, ctrl, x0, k)
        assert got_x.tobytes() == x.tobytes() and got_u.tobytes() == us.tobytes()


def test_synthesis_leaves_the_cost_blocks_as_they_were():
    # the recursion reads the diagonal blocks of steps without held states
    # in place, so it must never write to them
    rng = np.random.default_rng(16)
    T, m, n = 10, 2, 1
    system = TimeVaryingLinearSystem.constant(rng.normal(size=(m, m)) * 0.5,
                                              rng.normal(size=(m, n)), T)
    cost = build_viapoint_cost(T, [(1, rng.normal(size=m), 2.0), (5, rng.normal(size=m), 1.0),
                                   (T, rng.normal(size=m), 3.0)],
                               0.7, state_dim=m, input_dim=n)
    cost = add_correlation(cost, CorrelationSpec(3, 8, rng.normal(size=(m, m)),
                                                 rng.normal(size=m), np.eye(m)))
    before = {key: blk.copy() for key, blk in cost.Q.items()}
    law = solve_esls(system, cost).controller
    assert not law.held[1] and not law.held[T] and law.held[5]
    assert sorted(cost.Q) == sorted(before)
    assert all(cost.Q[key].tobytes() == blk.tobytes() for key, blk in before.items())


def test_controller_keeps_nonzero_blocks_of_dense_gain():
    # a BlockLowerTriangular K with a few memory blocks: the per-step form
    # keeps exactly those, acts like the dense row product and gives K back
    rng = np.random.default_rng(12)
    T, m, n = 9, 3, 2
    K = np.zeros(((T + 1) * n, (T + 1) * m))
    memory = {(4, 1), (6, 1), (6, 3), (9, 0)}
    for t in range(T + 1):
        for s in [t] + [s for (r, s) in memory if r == t]:
            K[t * n:(t + 1) * n, s * m:(s + 1) * m] = rng.normal(size=(n, m))
    k = rng.normal(size=(T + 1) * n)
    nominal_x, nominal_u = rng.normal(size=(T + 1) * m), rng.normal(size=(T + 1) * n)
    for nominal in [(None, None), (nominal_x, nominal_u)]:
        ctrl = Controller(BlockLowerTriangular(K, n, m), k, *nominal)
        assert {(t, s) for t, h in enumerate(ctrl.held) for s in h} == memory
        npt.assert_array_equal(ctrl.K.dense, K)
        xs = rng.normal(size=(T + 1) * m)
        dev = xs if nominal[0] is None else xs - nominal_x
        u_ref = K @ dev + k + (0 if nominal[1] is None else nominal_u)
        u = np.concatenate([ctrl.control(t, xs[:(t + 1) * m]) for t in range(T + 1)])
        npt.assert_allclose(u, u_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(u_ref)))
    twin = ctrl.with_feedforward(2 * k)
    assert twin.gains is ctrl.gains and twin.nominal_x is ctrl.nominal_x
    npt.assert_array_equal(ctrl.k, k)


def test_with_feedforward_copies_exactly_the_source_fields():
    # the copy carries every field of the source, shares all but k, and a
    # swap on the copy leaves the source's feedforward alone
    rng = np.random.default_rng(13)
    T, m, n = 8, 2, 1
    system = TimeVaryingLinearSystem.constant(rng.normal(size=(m, m)) * 0.5,
                                              rng.normal(size=(m, n)), T)
    cost, _, _ = _random_tracking_cost(rng, T, m, n, with_correlation=True)
    source = solve_esls(system, cost).controller   # as riccati_gains built it
    assert any(source.held) and source.hessian_inv is not None
    k = source.k
    twin = source.with_feedforward(2 * k)
    assert set(vars(twin)) == set(vars(source))
    assert twin.gains is source.gains and twin.hessian_inv is source.hessian_inv
    assert all(getattr(twin, f) is getattr(source, f) for f in vars(source) if f != "k")
    twin.swap_feedforward(3 * k)
    assert source.k is k
    npt.assert_array_equal(twin.k, 3 * k)


def test_controller_rejects_bad_feedforward_and_nominals():
    T, m, n = 4, 2, 1
    K = BlockLowerTriangular(np.eye((T + 1) * n, (T + 1) * m), n, m)
    k, x, u = np.zeros((T + 1) * n), np.zeros((T + 1) * m), np.zeros((T + 1) * n)
    bad_gain = K.dense.copy()
    bad_gain[0, 0] = np.nan
    for args, name in [((K, k[:-1]), "k"), ((K, np.r_[k[:-1], np.nan]), "k"),
                       ((K, k, np.r_[x, np.zeros(5)], u), "nominal_x"),
                       ((K, k, x[:-6], u), "nominal_x"),
                       ((K, k, x, np.r_[u[:-1], np.inf]), "nominal_u"),
                       ((K, k, x, None), "together"),
                       ((BlockLowerTriangular(bad_gain, n, m), k), "gain block at t=0")]:
        with pytest.raises(ValueError, match=name):
            Controller(*args)
    ctrl = Controller(K, k)
    with pytest.raises(ValueError, match="k must be"):
        ctrl.with_feedforward(np.full(k.size, np.nan))


def test_controller_storage_is_linear_in_horizon():
    # extraction and one rollout at T=400 stay far below the dense gain
    rng = np.random.default_rng(13)
    T, dim = 400, 3
    plant = double_integrator_plant(dim, 0.01)
    m, n = 2 * dim, dim
    vps = [(t, rng.normal(size=m), 10.0) for t in (100, 250, T)]
    cost = build_viapoint_cost(T, vps, 1e-2, state_dim=m, input_dim=n)
    for t1, t2 in [(100, 250), (50, 300), (120, T)]:
        cost = add_correlation(cost, CorrelationSpec(t1, t2, np.eye(m), np.zeros(m),
                                                     5.0 * np.eye(m)))
    resp = solve_esls(linear_system_from_plant(plant, T), cost)
    w = np.zeros((T + 1) * m)
    w[:m] = rng.normal(size=m)
    tracemalloc.start()
    try:
        traj = rollout(plant, extract_controller(resp), w=w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = (T + 1) * n * (T + 1) * m * 8
    assert peak < dense_bytes / 10
    assert np.all(np.isfinite(traj.inputs))


def _assert_one_sweep_is_the_two_pass_law(system, cost, dense=True):
    """The one-sweep law against feedforward_pass (1e-12) and the dense KKT oracle (1e-9).

    The feedforward-only pass on the law's own gains and inverse step
    Hessians is a second route to the feedforward; the dense oracle gives
    the gains, the feedforward and each inverse step Hessian, the (t, t)
    block of the inverse of the trailing Hessian S_u'QS_u + R over u_t..u_T.
    """
    T, m, n = system.horizon, system.state_dim, system.input_dim
    law = riccati_gains(system, cost)
    k = feedforward_pass(system.A, system.B, cost.R, law,
                         cost.u_d.reshape(T + 1, n, 1),
                         cost.linear_term.reshape(T + 1, m, 1)).ravel()
    assert np.all(np.isfinite(law.k))
    assert np.max(np.abs(law.k - k)) <= 1e-12 * np.max(np.abs(k))
    if not dense:
        return law
    S_x, S_u = dense_stacked_maps(system.A, system.B)
    Qd, Rd = dense_q(cost), np.zeros(((T + 1) * n, (T + 1) * n))
    for t in range(T + 1):
        Rd[t * n:(t + 1) * n, t * n:(t + 1) * n] = cost.R[t]
    K, k_dense = dense_esls(S_x, S_u, Qd, Rd, cost.linear_term, cost.u_d, m, n)[4:]
    _assert_rel(law.K.dense, K, 1e-9)
    _assert_rel(law.k, k_dense, 1e-9)
    H = S_u.T @ Qd @ S_u + Rd
    hinv = np.array([np.linalg.inv(H[t * n:, t * n:])[:n, :n] for t in range(T + 1)])
    _assert_rel(law.hessian_inv, hinv, 1e-9)
    return law


def test_one_sweep_feedforward_equals_the_feedforward_pass_and_the_dense_oracle():
    # time-varying dynamics with 0-3 correlations (a shared t1, nested
    # intervals, t1 = 0), an input target at every step, held ones included,
    # and linear terms at held steps that Q does not touch
    rng = np.random.default_rng(32)
    T, m, n = 12, 3, 2
    layouts = [[], [(2, 7), (2, T)], [(1, T - 1), (3, 6)], [(0, 5), (4, 9), (6, T)]]
    for layout in layouts:
        system = TimeVaryingLinearSystem([np.eye(m) + 0.3 * rng.normal(size=(m, m))
                                          for _ in range(T + 1)],
                                         [rng.normal(size=(m, n)) for _ in range(T + 1)])
        cost, _, _ = _random_tracking_cost(rng, T, m, n)
        for t1, t2 in layout:
            L = rng.normal(size=(m, m))
            cost = add_correlation(cost, CorrelationSpec(
                t1, t2, rng.normal(size=(m, m)), rng.normal(size=m), L @ L.T + 0.1 * np.eye(m)))
        cost.u_d = rng.normal(size=(T + 1) * n)
        held = held_states(cost)
        for t in range(T + 1):
            if held[t] and (t, t) not in cost.Q:
                cost._lin[t * m:(t + 1) * m] += rng.normal(size=m)
        law = _assert_one_sweep_is_the_two_pass_law(system, cost)
        assert law.held == held


def test_one_sweep_feedforward_on_the_arms_newton_subproblem():
    # the costate-curvature subproblem of the bundled posture's sixth pass,
    # the first to carry the term: an input target u_d - u_hat and a linear
    # term at every step, and a feedforward of about 7e-4 (at convergence it
    # is the 1e-9 difference of two O(1) terms, with no relative digits left)
    scenario = load_scenario(bundled_scenario_path("pickplace_arm"))
    plant, objective, cfg = build_plant(scenario), build_objective(scenario), isls_config(scenario)
    ctrl, res = isls_optimize(plant, objective, plant.augment(scenario.initial_state["theta"]),
                              config=dataclasses.replace(cfg, max_iterations=5))
    assert res.history[-1].step_norm <= slsctrl.isls.NEWTON_SWITCH
    m, n = plant.state_dim, plant.input_dim
    x_hat, u_hat = ctrl.nominal_x.reshape(-1, m), ctrl.nominal_u.reshape(-1, n)
    system = linearize_plant(plant, x_hat, u_hat)
    curvature = slsctrl.isls._costate_curvature(plant, objective, system.A, x_hat, u_hat)
    sub = objective.quadratize(x_hat, u_hat, cfg.regularization, cfg.hessian_floor, curvature)
    assert sub.u_d.any() and sub.linear_term.any()
    _assert_one_sweep_is_the_two_pass_law(system, sub)


def test_an_overflowing_cost_to_go_constant_leaves_the_law_finite():
    # linear terms of 1e150 against weights of 1e-12: the constant k'H k of
    # the cost-to-go overflows at some step, the gains and feedforward do not
    rng = np.random.default_rng(33)
    T, m, n = 10, 2, 1
    system = TimeVaryingLinearSystem.constant(np.array([[1.0, 0.1], [0.0, 1.0]]),
                                              np.array([[0.0], [0.1]]), T)
    cost = build_viapoint_cost(T, [(t, np.zeros(m), 1e-12) for t in (3, 7, T)], 1e-12,
                               state_dim=m, input_dim=n)
    cost = add_correlation(cost, CorrelationSpec(2, 8, np.eye(m), np.zeros(m), 1e-12 * np.eye(m)))
    plain = riccati_gains(system, cost)
    cost._lin[:] = 1e150 * rng.normal(size=(T + 1) * m)
    law = _assert_one_sweep_is_the_two_pass_law(system, cost, dense=False)
    ks = law.k.reshape(T + 1, n)
    with np.errstate(over="ignore"):
        constants = np.einsum("ti,tij,tj->t", ks, np.linalg.inv(law.hessian_inv), ks)
    assert np.isinf(constants).any()
    for g, g_plain in zip(law.gains, plain.gains):
        npt.assert_allclose(g, g_plain, rtol=1e-12, atol=0)


def test_a_target_of_1e200_keeps_finite_residuals():
    # the residuals scale before their norms, whose squares would overflow
    T, m, n = 20, 2, 1
    system = TimeVaryingLinearSystem.constant(np.array([[1.0, 0.1], [0.0, 1.0]]),
                                              np.array([[0.0], [0.1]]), T)
    cost = build_viapoint_cost(T, [(T, np.array([1e200, 0.0]), 10.0)], 1e-2,
                               state_dim=m, input_dim=n)
    res = solve_esls(system, cost).residuals()
    assert max(res.values()) <= 1e-10


def test_synthesis_and_maps_memory_is_linear_in_horizon():
    # the traced peak of solve_esls plus precompute_gain_maps grows about 8x
    # from T=400 to T=3200; an operator dense in T would grow about 64x
    def peak(T):
        d, m = 3, 6
        w = np.diag(np.r_[1e4 * np.ones(d), 1e2 * np.ones(d)])
        vps = [(t, np.r_[0.3 * np.ones(d), np.zeros(d)], w) for t in (T // 4, T // 2, T)]
        cost = build_viapoint_cost(T, vps, 1e-2, state_dim=m, input_dim=d)
        Q_c = np.diag(np.r_[1e4 * np.ones(d), np.zeros(d)])
        cost = add_correlation(cost, CorrelationSpec(T // 4, 3 * T // 4, np.eye(m),
                                                     np.zeros(m), Q_c))
        st = linear_system_from_plant(double_integrator_plant(d, 0.01), T)
        tracemalloc.start()
        try:
            precompute_gain_maps(st, cost, extract_controller(solve_esls(st, cost)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3200) <= 10 * peak(400)
