"""Iterative synthesis: line search, termination, and nonlinear tracking."""

import numpy as np
import numpy.testing as npt
import pytest

from slsctrl import (
    IslsConfig,
    LinearPlant,
    StateCostFunction,
    TrackingObjective,
    build_viapoint_cost,
    double_integrator_plant,
    extract_controller,
    isls_optimize,
    linearize_plant,
    planar_arm_plant,
    solve_esls,
)
from slsctrl.bench import bundled_scenario_path
from slsctrl.costs import CorrelationSpec, CostSpec
from slsctrl.isls import closed_loop_step, nominal_rollout
from slsctrl.plants import PlanarArmPlant
from slsctrl.scenarios import (
    Scenario,
    build_objective,
    build_plant,
    draw_initial_state,
    load_scenario,
)

from oracles import (
    alpha_scan,
    fd_gradient,
    per_step_quadratization,
    planar_fk,
    two_link_ik,
)


def _terminal_cost(horizon, state_dim, value, gradient, hessian):
    def v(t, x):
        return value(x) if t == horizon else 0.0

    def g(t, x):
        return gradient(x) if t == horizon else np.zeros(state_dim)

    def h(t, x):
        return hessian(x) if t == horizon else np.zeros((state_dim, state_dim))

    return StateCostFunction(v, g, h)


def test_lq_problem_converges_in_one_accepted_iteration():
    rng = np.random.default_rng(0)
    for trial in range(3):
        T, m, n = 8, 2, 1
        A = rng.normal(size=(m, m)) * 0.6
        B = rng.normal(size=(m, n))
        plant = LinearPlant(A, B)
        cost = build_viapoint_cost(
            T,
            [(3, rng.normal(size=m), 5.0), (T, rng.normal(size=m), 20.0)],
            0.5, state_dim=m, input_dim=n)
        x0 = rng.normal(size=m)
        # zero regularization keeps the first subproblem identical to the
        # original problem, which is what one-step exactness is about
        ctrl, res = isls_optimize(plant, TrackingObjective.from_costspec(cost),
                                  x0, config=IslsConfig(regularization=0.0))
        assert res.converged
        assert res.iterations == 1
        assert res.reason == "stationary"
        assert res.history[0].alpha == 1.0

        st = linearize_plant(plant, nominal_rollout(
            plant, x0, np.zeros((T + 1, n))), np.zeros((T + 1, n)))
        direct = extract_controller(solve_esls(st, cost))
        npt.assert_allclose(ctrl.K.dense, direct.K.dense, atol=1e-8)
        npt.assert_allclose(ctrl.absolute_feedforward(), direct.k, atol=1e-8)


def test_quartic_terminal_cost_full_steps():
    # Newton's step on x^4 contracts toward the origin (factor 2/3), so the
    # full step always strictly decreases the cost: every accepted alpha is 1
    plant = LinearPlant(np.array([[1.0]]), np.array([[1.0]]))
    T = 4
    obj = TrackingObjective(
        T, 1, 1,
        _terminal_cost(T, 1,
                       lambda x: float(x[0] ** 4),
                       lambda x: np.array([4 * x[0] ** 3]),
                       lambda x: np.array([[12 * x[0] ** 2]])),
        control_weight=1e-8)
    ctrl, res = isls_optimize(plant, obj, np.array([1.0]),
                              config=IslsConfig(tolerance=1e-12,
                                                regularization=0.0))
    assert res.converged
    assert all(h.alpha == 1.0 for h in res.history)
    costs = [h.cost for h in res.history]
    assert all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))
    x_final = ctrl.nominal_x.reshape(T + 1, 1)[T, 0]
    assert abs(x_final) < 1e-2
    assert res.cost < 1e-7


def test_flat_tail_cost_forces_backtracking():
    # sqrt(1 + x^2) has near-vanishing curvature away from the origin, so
    # the Newton step from x=2 flies past the minimum and increases the
    # cost; the first improving scale in the schedule is an interior one
    plant = LinearPlant(np.array([[1.0]]), np.array([[1.0]]))
    T = 1
    obj = TrackingObjective(
        T, 1, 1,
        _terminal_cost(T, 1,
                       lambda x: float(np.sqrt(1 + x[0] ** 2)),
                       lambda x: np.array([x[0] / np.sqrt(1 + x[0] ** 2)]),
                       lambda x: np.array([[(1 + x[0] ** 2) ** -1.5]])),
        control_weight=1e-10)
    x0 = np.array([2.0])
    cfg = IslsConfig(tolerance=1e-12, regularization=0.0)

    # brute-force scan of the true cost over the backtracking grid
    u_hat = np.zeros((T + 1, 1))
    x_hat = nominal_rollout(plant, x0, u_hat)
    sub = obj.quadratize(x_hat, u_hat, cfg.regularization)
    first = extract_controller(solve_esls(
        linearize_plant(plant, x_hat, u_hat), sub))

    def cost_of_alpha(alpha):
        xs, us = closed_loop_step(plant, first, alpha * first.k, x_hat, u_hat)
        return obj.true_cost(xs, us)

    base = obj.true_cost(x_hat, u_hat)
    _, costs = alpha_scan(cost_of_alpha, cfg.alphas)
    improving = [a for a, c in zip(cfg.alphas, costs) if c < base]
    assert cost_of_alpha(1.0) > base        # full step overshoots
    assert improving and improving[0] < 1.0

    ctrl, res = isls_optimize(plant, obj, x0, config=cfg)
    assert res.history[0].alpha == improving[0]
    assert res.converged
    npt.assert_allclose(res.cost, 1.0, atol=1e-6)
    assert abs(ctrl.nominal_x.reshape(T + 1, 1)[T, 0]) < 1e-3


def test_stationary_start_takes_no_step():
    plant = LinearPlant(np.array([[0.9, 0.1], [0.0, 0.8]]), np.eye(2))
    T = 6
    cost = build_viapoint_cost(T, [(t, np.zeros(2), 1.0) for t in range(T + 1)],
                               1.0, state_dim=2, input_dim=2)
    ctrl, res = isls_optimize(plant, TrackingObjective.from_costspec(cost),
                              np.zeros(2))
    assert res.reason == "stationary"
    assert res.iterations == 0
    assert res.history == []
    assert res.stationarity <= 1e-9
    npt.assert_array_equal(ctrl.nominal_x, np.zeros((T + 1) * 2))
    npt.assert_array_equal(ctrl.nominal_u, np.zeros((T + 1) * 2))


def test_nonfinite_line_search_is_not_convergence():
    # the plant's step blows up to NaN past |x| = 1e-3, so every trial of
    # the first line search costs NaN and no step can be accepted
    di = double_integrator_plant(1, 0.1)

    class NanBeyondBound(LinearPlant):
        def step(self, t, x, u):
            if np.max(np.abs(x)) >= 1e-3:
                return np.full(self.state_dim, np.nan)
            return super().step(t, x, u)

    T = 10
    cost = build_viapoint_cost(T, [(T, np.array([10.0, 0.0]), 1.0)], 1e-2,
                               state_dim=2, input_dim=1)
    _, res = isls_optimize(NanBeyondBound(di.A, di.B, dt=di.dt),
                           TrackingObjective.from_costspec(cost), np.zeros(2))
    assert res.reason == "non_finite"
    assert not res.converged
    assert res.iterations == 0


def test_stall_converges_only_within_step_bound():
    # a true cost that never decreases rejects every scale of the first
    # step; with a step bound set, that stall is not convergence
    class NeverImproves(TrackingObjective):
        def true_cost(self, xs, us):
            return 1.0

    di = double_integrator_plant(1, 0.1)
    T = 10
    cost = build_viapoint_cost(T, [(T, np.array([1.0, 0.0]), 1.0)], 1e-2,
                               state_dim=2, input_dim=1)
    obj = NeverImproves.from_costspec(cost)
    _, res = isls_optimize(di, obj, np.zeros(2), config=IslsConfig(stationarity_tolerance=1e-6))
    assert res.reason == "stall"
    assert res.iterations == 0
    assert res.stationarity > 1e-6
    assert not res.converged
    # without a step bound a stall still counts as converged
    _, res = isls_optimize(di, obj, np.zeros(2))
    assert res.reason == "stall"
    assert res.converged


def test_arm_reaching_viapoint():
    lengths = [0.8, 0.6]
    target = np.array([0.7, 0.5])
    assert two_link_ik(lengths, target) is not None  # reachability precheck
    arm = planar_arm_plant(lengths, 0.05)
    T = 30
    m = arm.state_dim
    g = np.zeros(m)
    g[4:6] = target
    w = np.zeros(m)
    w[4:6] = 1e4
    obj = TrackingObjective(
        T, m, arm.input_dim,
        StateCostFunction.quadratic_viapoints(T, [(T, g, w)], m),
        control_weight=1e-3)
    x0 = arm.augment(np.array([0.3, 0.4]), np.zeros(2))
    ctrl, res = isls_optimize(plant=arm, objective=obj, x0=x0)
    assert res.converged, res.reason
    deltas = [h.delta_cost for h in res.history]
    assert all(d > 0 for d in deltas)  # strict decrease at every accepted step
    theta_T = ctrl.nominal_x.reshape(T + 1, m)[T, :2]
    ee = planar_fk(lengths, theta_T)
    npt.assert_allclose(ee, target, atol=1e-3)
    # at convergence the zero-noise closed loop reproduces the nominal
    xs, us = closed_loop_step(
        arm, ctrl, ctrl.k,
        ctrl.nominal_x.reshape(T + 1, m), ctrl.nominal_u.reshape(T + 1, -1))
    npt.assert_allclose(xs.reshape(-1), ctrl.nominal_x, atol=1e-6)


def test_quadratization_fidelity():
    # second-order model error shrinks cubically in the deviation size;
    # correlations and the input penalty transfer exactly (already quadratic)
    T, m, n = 3, 2, 1
    sc = StateCostFunction(
        lambda t, x: float(np.sqrt(1 + x[0] ** 2) + x[1] ** 4),
        lambda t, x: np.array([x[0] / np.sqrt(1 + x[0] ** 2), 4 * x[1] ** 3]),
        lambda t, x: np.array([[(1 + x[0] ** 2) ** -1.5, 0.0],
                               [0.0, 12 * x[1] ** 2]]))
    obj = TrackingObjective(
        T, m, n, sc,
        correlations=[CorrelationSpec(0, 2, np.eye(m), np.array([0.1, -0.2]),
                                      3.0 * np.eye(m))],
        control_weight=0.5)
    rng = np.random.default_rng(1)
    x_hat = rng.normal(size=(T + 1, m))
    u_hat = rng.normal(size=(T + 1, n))
    sub = obj.quadratize(x_hat, u_hat, regularization=0.0)
    base_true = obj.true_cost(x_hat, u_hat)
    base_model = sub.evaluate(np.zeros((T + 1) * m), np.zeros((T + 1) * n))
    for scale in (1e-2, 1e-3):
        for _ in range(5):
            dx = rng.normal(size=(T + 1) * m)
            dx *= scale / np.linalg.norm(dx)
            du = rng.normal(size=(T + 1) * n)
            du *= scale / np.linalg.norm(du)
            true_diff = obj.true_cost(x_hat + dx.reshape(T + 1, m),
                                      u_hat + du.reshape(T + 1, n)) - base_true
            model_diff = sub.evaluate(dx, du) - base_model
            assert abs(true_diff - model_diff) <= 100.0 * scale ** 3


def test_quadratize_matches_fd_gradient():
    T, m, n = 2, 2, 1
    sc = StateCostFunction(
        lambda t, x: float(np.cos(x[0]) + 0.5 * x[1] ** 2),
        lambda t, x: np.array([-np.sin(x[0]), x[1]]),
        lambda t, x: np.array([[-np.cos(x[0]), 0.0], [0.0, 1.0]]))
    obj = TrackingObjective(T, m, n, sc, control_weight=0.3)
    rng = np.random.default_rng(2)
    x_hat = rng.normal(size=(T + 1, m))
    u_hat = rng.normal(size=(T + 1, n))
    # the cosine makes the raw hessian indefinite at some states; flooring
    # keeps the subproblem convex while the gradient check stays exact
    sub = obj.quadratize(x_hat, u_hat, regularization=0.0, hessian_floor=0.1)
    g_model = -2.0 * sub.linear_term
    g_true = fd_gradient(
        lambda z: obj.true_cost(z.reshape(T + 1, m), u_hat), x_hat.reshape(-1))
    npt.assert_allclose(g_model, g_true, atol=1e-5)


def test_curvature_that_cannot_carry_gradient_raises():
    T, m = 1, 2
    sc = StateCostFunction(
        lambda t, x: float(x[0]),
        lambda t, x: np.array([1.0, 0.0]),
        lambda t, x: np.zeros((m, m)))
    obj = TrackingObjective(T, m, 1, sc, control_weight=1.0)
    with pytest.raises(ValueError, match="curvature at t=0 "):
        obj.quadratize(np.zeros((T + 1, m)), np.zeros((T + 1, 1)),
                       regularization=0.0)


def test_linearize_reprojects_inconsistent_nominal():
    arm = planar_arm_plant([0.6, 0.5], 0.05)
    T = 5
    rng = np.random.default_rng(3)
    u_hat = 0.1 * rng.normal(size=(T + 1, arm.input_dim))
    x_feasible = nominal_rollout(arm, arm.augment([0.2, -0.1], [0.0, 0.0]), u_hat)
    x_bad = x_feasible.copy()
    x_bad[2:] += 0.05  # break dynamic consistency mid-trajectory
    sys_bad = linearize_plant(arm, x_bad, u_hat)
    sys_ref = linearize_plant(arm, x_feasible, u_hat)
    for t in range(T + 1):
        npt.assert_allclose(sys_bad.A[t], sys_ref.A[t], atol=1e-12)
        npt.assert_allclose(sys_bad.B[t], sys_ref.B[t], atol=1e-12)


def test_batched_quadratize_matches_per_step_lstsq():
    # singular weights (zero diagonal entries as in the bundled pick-place
    # scenario, and a rank-one block) without regularization, where the
    # center is lstsq's min-norm solution; the diagonal ones with the
    # scenario's regularization; an indefinite non-diagonal cost with an
    # eigenvalue floor
    T, m, n = 6, 4, 1
    rng = np.random.default_rng(5)
    v = rng.normal(size=m)
    diagonal = [(1, rng.normal(size=m), [0.0, 1e5, 0.0, 1.0]),
                (6, rng.normal(size=m), [1e4, 0.0, 0.0, 1e3])]
    singular = StateCostFunction.quadratic_viapoints(
        T, diagonal + [(3, rng.normal(size=m), 1e3 * np.outer(v, v))], m)
    a = rng.normal(size=m)
    S = rng.normal(size=(m, m))
    S = S + S.T
    indefinite = StateCostFunction(
        lambda t, x: float(np.cos(a @ x) + 0.5 * x @ S @ x),
        lambda t, x: -np.sin(a @ x) * a + S @ x,
        lambda t, x: -np.cos(a @ x) * np.outer(a, a) + S)
    x_hat = rng.normal(size=(T + 1, m))
    u_hat = rng.normal(size=(T + 1, n))
    for state_cost, regularization, floor in (
            (singular, 0.0, None),
            (StateCostFunction.quadratic_viapoints(T, diagonal, m), 1e-6, None),
            (indefinite, 0.0, 0.1)):
        obj = TrackingObjective(T, m, n, state_cost, control_weight=0.1)
        sub = obj.quadratize(x_hat, u_hat, regularization, floor)
        Q_ref, lin_ref, x_d_ref = per_step_quadratization(
            state_cost, x_hat, regularization, floor)
        assert sorted(sub.Q) == sorted((t, t) for t in Q_ref)
        for t, blk in Q_ref.items():
            npt.assert_allclose(sub.Q[(t, t)], blk, rtol=1e-12, atol=1e-12 * np.max(np.abs(blk)))
        npt.assert_allclose(sub.x_d.reshape(T + 1, m), x_d_ref, rtol=1e-9, atol=1e-12)
        npt.assert_allclose(sub.linear_term.reshape(T + 1, m), lin_ref,
                            rtol=1e-9, atol=1e-9 * np.max(np.abs(lin_ref)))


def test_quadratize_refreshes_each_coupled_component_once(monkeypatch):
    # the bundled pick-place correlations share t1 = 40, so their coupled
    # component (40, 60, 100) is solved once per quadratization
    scenario = Scenario.from_dict(load_scenario(bundled_scenario_path("pickplace_arm")).raw)
    plant = build_plant(scenario)
    objective = build_objective(scenario)
    x0 = draw_initial_state(scenario, np.random.default_rng(0), plant)
    u_hat = np.zeros((scenario.horizon + 1, plant.input_dim))
    x_hat = nominal_rollout(plant, x0, u_hat)
    refresh = CostSpec._refresh_targets
    seeds = []

    def counting_refresh(cost, t_seed):
        seeds.append(t_seed)
        return refresh(cost, t_seed)

    monkeypatch.setattr(CostSpec, "_refresh_targets", counting_refresh)
    sub = objective.quadratize(x_hat, u_hat, 1e-6)
    assert len(sub.correlations) == 2
    assert seeds == [40]
    # refreshing from every correlation again leaves the targets bit-identical
    x_d = sub.x_d.copy()
    for corr in sub.correlations:
        refresh(sub, corr.t1)
    npt.assert_array_equal(sub.x_d, x_d)


def test_linearize_one_pass_matches_per_step_route():
    # the arm broadcasts, so linearize_plant calls step once for the defect
    # check and jacobians once; a duck-typed wrapper exposing only step and
    # jacobians is linearized step by step and must give the same system
    calls = []

    class CountingArm(PlanarArmPlant):
        def step(self, t, z, u):
            calls.append(("step", np.shape(z)))
            return super().step(t, z, u)

        def jacobians(self, t, z, u):
            calls.append(("jacobians", np.shape(z)))
            return super().jacobians(t, z, u)

    class PerStep:
        def __init__(self, plant):
            self.state_dim, self.input_dim = plant.state_dim, plant.input_dim
            self.step, self.jacobians = plant.step, plant.jacobians

    arm = CountingArm([0.45, 0.4, 0.35], 0.05, -2.9 * np.ones(3), 2.9 * np.ones(3))
    T, m = 30, arm.state_dim
    rng = np.random.default_rng(6)
    u_hat = 0.5 * rng.normal(size=(T + 1, arm.input_dim))
    x_feasible = nominal_rollout(arm, arm.augment([1.3, -0.8, -0.2], [0.3, 0.0, -0.2]), u_hat)
    x_bad = x_feasible.copy()
    x_bad[7:] += 0.05  # inconsistent: forces the reprojection
    for x_hat, reprojected in ((x_feasible, False), (x_bad, True)):
        calls.clear()
        one_pass = linearize_plant(arm, x_hat, u_hat)
        expected = [("step", (T, m))] + [("step", (m,))] * (T if reprojected else 0)
        assert calls == expected + [("jacobians", (T + 1, m))]
        per_step = linearize_plant(PerStep(arm), x_hat, u_hat)
        for t in range(T + 1):
            npt.assert_allclose(one_pass.A[t], per_step.A[t], rtol=0, atol=1e-12)
            npt.assert_allclose(one_pass.B[t], per_step.B[t], rtol=0, atol=1e-12)
        if reprojected:
            ref = linearize_plant(arm, x_feasible, u_hat)
            npt.assert_allclose(np.array(one_pass.A), np.array(ref.A), rtol=0, atol=1e-12)


def test_nonfinite_inputs_name_their_source():
    arm = planar_arm_plant([0.6, 0.5], 0.05)
    T, m, n = 5, arm.state_dim, arm.input_dim
    obj = TrackingObjective(
        T, m, n, StateCostFunction.quadratic_viapoints(T, [(T, np.zeros(m), 1.0)], m),
        control_weight=1e-2)
    x0 = arm.augment([0.2, -0.1])
    bad_x0 = x0.copy()
    bad_x0[0] = np.nan
    with pytest.raises(ValueError, match="x0"):
        isls_optimize(arm, obj, bad_x0)
    init_u = np.zeros((T + 1, n))
    init_u[3, 1] = np.inf
    with pytest.raises(ValueError, match="init_u"):
        isls_optimize(arm, obj, x0, init_u=init_u)
    sc = StateCostFunction(lambda t, x: 0.0,
                           lambda t, x: np.full(m, np.nan if t == 2 else 0.0),
                           lambda t, x: np.eye(m))
    with pytest.raises(ValueError, match="t=2"):
        TrackingObjective(T, m, n, sc, control_weight=1.0).quadratize(
            np.zeros((T + 1, m)), np.zeros((T + 1, n)))


def test_linearize_rejects_nonfinite_jacobians():
    class BrokenPlant:
        state_dim = 1
        input_dim = 1
        is_linear = False

        def step(self, t, x, u):
            return x + u

        def jacobians(self, t, x, u):
            A = np.array([[np.nan if t == 2 else 1.0]])
            return A, np.array([[1.0]])

    plant = BrokenPlant()
    xs = np.zeros((5, 1))
    us = np.zeros((5, 1))
    with pytest.raises(ValueError, match="t=2"):
        linearize_plant(plant, xs, us)


def test_correlation_offset_transfers_to_subproblem():
    # the shifted residual stored in the quadratized correlation is
    # C x_hat_t1 + c - x_hat_t2, so evaluating it at zero deviation must
    # reproduce the true correlation penalty at the nominal
    T, m = 4, 2
    corr = CorrelationSpec(1, 3, 2.0 * np.eye(m), np.array([0.3, -0.1]),
                           np.diag([4.0, 1.0]))
    obj = TrackingObjective(
        T, m, 1, StateCostFunction.quadratic_viapoints(T, [], m),
        correlations=[corr], control_weight=1.0)
    rng = np.random.default_rng(4)
    x_hat = rng.normal(size=(T + 1, m))
    u_hat = rng.normal(size=(T + 1, 1))
    sub = obj.quadratize(x_hat, u_hat)
    assert len(sub.correlations) == 1
    shifted = sub.correlations[0]
    npt.assert_allclose(
        shifted.c, corr.C @ x_hat[1] + corr.c - x_hat[3], atol=1e-12)
    npt.assert_allclose(shifted.evaluate(np.zeros(m), np.zeros(m)),
                        corr.evaluate(x_hat[1], x_hat[3]), atol=1e-12)
