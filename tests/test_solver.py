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
from slsctrl.solver import held_states

from dense_views import (
    achievability_residual,
    closed_loop_maps,
    dense_F_u,
    dense_F_x,
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
    npt.assert_allclose(traj.stacked_states, resp.d_x, atol=1e-10)
    npt.assert_allclose(traj.stacked_inputs, resp.d_u, atol=1e-10)


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
    scaled = dataclasses.replace(resp, d_x=resp.d_x * (1 + 1e-6), d_u=resp.d_u * (1 + 1e-6))
    wrong = scaled.residuals()
    # the scaled plan is still a trajectory of the dynamics, so only
    # stationarity can tell it from the optimum
    assert feedforward_residual(st, scaled.d_x, scaled.d_u) <= 1e-12
    assert genuine["stationarity"] <= 1e-11
    assert wrong["stationarity"] >= 1e-7


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
            assert wrong.stationarity() == resp.stationarity()
            assert wrong.gain_stationarity() >= floor


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
    npt.assert_allclose(ctrl.absolute_feedforward(), nominal_u + k - K @ nominal_x,
                        rtol=1e-12, atol=1e-12)
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
