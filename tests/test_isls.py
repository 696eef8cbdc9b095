"""Iterative synthesis: line search, termination, and nonlinear tracking."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import slsctrl.isls
import slsctrl.solver
from slsctrl import (
    Controller,
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
    rollout,
    solve_esls,
)
from slsctrl.adaptation import precompute_gain_maps
from slsctrl.bench import bench_pickplace, bundled_scenario_path
from slsctrl.costs import CorrelationSpec, CostSpec, central_difference
from slsctrl.isls import ALPHAS, NEWTON_SWITCH, closed_loop_step
from slsctrl.plants import PlanarArmPlant, Plant
from slsctrl.scenarios import (
    Scenario,
    build_objective,
    build_plant,
    draw_initial_state,
    isls_config,
    load_scenario,
)
from slsctrl.solver import check_law

from oracles import (
    alpha_scan,
    closed_loop_step_reference,
    fd_gradient,
    per_step_quadratization,
    planar_fk,
    two_link_ik,
)


def _open_loop_states(plant, x0, us):
    """States (T+1, m) of the plant run from x0 by the open-loop law of inputs us (T+1, n)."""
    return rollout(plant, Controller.open_loop(us, plant.state_dim), x0=x0).states


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

        st = linearize_plant(plant, _open_loop_states(
            plant, x0, np.zeros((T + 1, n))), np.zeros((T + 1, n)))
        direct = extract_controller(solve_esls(st, cost))
        npt.assert_allclose(ctrl.K.dense, direct.K.dense, atol=1e-8)
        # the law rewritten as u = K x + k_abs
        npt.assert_allclose(ctrl.nominal_u + ctrl.k - ctrl.K.dense @ ctrl.nominal_x,
                            direct.k, atol=1e-8)


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
    x_hat = _open_loop_states(plant, x0, u_hat)
    sub = obj.quadratize(x_hat, u_hat, cfg.regularization)
    first = extract_controller(solve_esls(
        linearize_plant(plant, x_hat, u_hat), sub))

    def cost_of_alpha(alpha):
        xs, us = closed_loop_step(plant, first, alpha * first.k, x_hat, u_hat)
        return obj.true_cost(xs, us)

    base = obj.true_cost(x_hat, u_hat)
    _, costs = alpha_scan(cost_of_alpha, ALPHAS)
    improving = [a for a, c in zip(ALPHAS, costs) if c < base]
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


def test_input_effort_in_one_product_matches_per_step_sums():
    # time-varying, non-diagonal R and a nonzero u_d; blocks and stacked
    # vectors give the same values
    T, m, n = 12, 3, 2
    rng = np.random.default_rng(11)
    obj = TrackingObjective(T, m, n, StateCostFunction(lambda t, x: (t + 1) * x @ x),
                            u_d=rng.normal(size=(T + 1) * n))
    G = rng.normal(size=(T + 1, n, n))
    obj.R = G @ G.transpose(0, 2, 1) + 0.1 * np.eye(n)
    xs = rng.normal(size=(T + 1, m))
    us = rng.normal(size=(T + 1, n))
    e = us - obj.u_d.reshape(T + 1, n)
    per_step = np.array([(t + 1) * xs[t] @ xs[t] + e[t] @ obj.R[t] @ e[t]
                         for t in range(T + 1)])
    assert np.all(np.abs(obj.R[:, 0, 1]) > 1e-3) and np.ptp(obj.R[:, 0, 1]) > 0.1
    for x_arg, u_arg in ((xs, us), (xs.ravel(), us.ravel())):
        npt.assert_allclose(obj.true_cost(x_arg, u_arg), per_step.sum(), rtol=1e-12)
        npt.assert_allclose(obj.cumulative_cost(x_arg, u_arg), np.cumsum(per_step),
                            rtol=1e-12)


def test_quadratize_refreshes_each_coupled_component_once(monkeypatch):
    # the bundled pick-place correlations share t1 = 40, so their coupled
    # component (40, 60, 100) is solved once per quadratization
    scenario = Scenario.from_dict(load_scenario(bundled_scenario_path("pickplace_arm")).raw)
    plant = build_plant(scenario)
    objective = build_objective(scenario)
    x0 = draw_initial_state(scenario, np.random.default_rng(0), plant)
    u_hat = np.zeros((scenario.horizon + 1, plant.input_dim))
    x_hat = _open_loop_states(plant, x0, u_hat)
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


def _subproblem_bytes(sub):
    return [sub.x_d.tobytes(), sub.linear_term.tobytes(), sub.u_d.tobytes(),
            sorted((key, blk.tobytes()) for key, blk in sub.Q.items())]


def test_quadratize_recomputes_eigh_only_when_the_hessian_stack_moves(monkeypatch):
    # a curvature that depends on x is decomposed again at a new nominal and
    # gives the subproblem of a fresh objective; keypoint quadratics have one
    # stack at every nominal, decomposed once
    T, m, n = 5, 2, 1
    rng = np.random.default_rng(21)
    quartic = StateCostFunction(lambda t, x: float(x @ x) ** 2,
                                lambda t, x: 4 * float(x @ x) * x,
                                lambda t, x: 4 * float(x @ x) * np.eye(m) + 8 * np.outer(x, x))
    keypoints = StateCostFunction.quadratic_viapoints(T, [(2, rng.normal(size=m), 2.0),
                                                          (T, rng.normal(size=m), 5.0)], m)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(H) or eigh(H))
    u_hat = rng.normal(size=(T + 1, n))
    nominals = [rng.normal(size=(T + 1, m)) for _ in range(3)]
    for state_cost, decompositions in ((quartic, 3), (keypoints, 1)):
        calls.clear()
        obj = TrackingObjective(T, m, n, state_cost, control_weight=0.5)
        subs = [obj.quadratize(x_hat, u_hat, 1e-6) for x_hat in nominals]
        assert len(calls) == decompositions
        for x_hat, sub in zip(nominals, subs):
            fresh = TrackingObjective(T, m, n, state_cost, control_weight=0.5)
            assert _subproblem_bytes(sub) == _subproblem_bytes(fresh.quadratize(x_hat, u_hat, 1e-6))


def test_objective_reused_across_trials_gives_a_fresh_objectives_controller():
    scenario = load_scenario(bundled_scenario_path("pickplace_arm"))
    plant, cfg = build_plant(scenario), isls_config(scenario)
    rng = np.random.default_rng(22)
    x0_first, x0_second = (draw_initial_state(scenario, rng, plant) for _ in range(2))
    reused = build_objective(scenario)
    isls_optimize(plant, reused, x0_first, config=cfg)
    laws = [isls_optimize(plant, objective, x0_second, config=cfg)
            for objective in (reused, build_objective(scenario))]
    (a, res_a), (b, res_b) = laws
    assert res_a.iterations == res_b.iterations and res_a.cost == res_b.cost
    for name in ("k", "nominal_x", "nominal_u", "hessian_inv"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.held == b.held
    assert [g.tobytes() for g in a.gains] == [g.tobytes() for g in b.gains]


def test_pickplace_trial_runs_no_plan_pass(monkeypatch):
    # the outer loop reads only the subproblems' controllers, never a plan
    scenario = load_scenario(bundled_scenario_path("pickplace_arm"))
    plant = build_plant(scenario)
    x0 = draw_initial_state(scenario, np.random.default_rng(0), plant)
    calls = []
    run = slsctrl.solver._run_policy
    monkeypatch.setattr(slsctrl.solver, "_run_policy",
                        lambda *args: calls.append(args) or run(*args))
    _, result = isls_optimize(plant, build_objective(scenario), x0,
                              config=isls_config(scenario))
    assert result.converged and result.iterations > 1
    assert calls == []


def test_linearize_one_pass_matches_per_step_route():
    # the arm's jacobians broadcast, so linearize_plant makes one call of it
    # and none of step; a duck-typed wrapper exposing only step and
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
    x_hat = _open_loop_states(arm, arm.augment([1.3, -0.8, -0.2], [0.3, 0.0, -0.2]), u_hat)
    calls.clear()
    one_pass = linearize_plant(arm, x_hat, u_hat)
    assert calls == [("jacobians", (T + 1, m))]
    per_step = linearize_plant(PerStep(arm), x_hat, u_hat)
    for t in range(T + 1):
        npt.assert_allclose(one_pass.A[t], per_step.A[t], rtol=0, atol=1e-12)
        npt.assert_allclose(one_pass.B[t], per_step.B[t], rtol=0, atol=1e-12)


def test_first_nominal_is_the_rollout_of_the_open_loop_law():
    # max_iterations=0 returns the law around the first nominal
    plant, objective, cfg, x0s = _pickplace_postures(0, 2)
    T, n = objective.horizon, plant.input_dim
    cfg.max_iterations = 0
    zeros = np.zeros((T + 1, n))
    for x0, init_u in ((x0s[0], None), (x0s[1], zeros),
                       (x0s[1], 0.3 * np.random.default_rng(8).normal(size=(T + 1, n)))):
        law, result = isls_optimize(plant, objective, x0, init_u=init_u, config=cfg)
        assert result.reason == "max_iterations" and result.iterations == 0
        us = plant.initial_inputs(objective, x0) if init_u is None else init_u
        first = rollout(plant, Controller.open_loop(us, plant.state_dim), x0=x0)
        assert law.nominal_x.tobytes() == first.states.tobytes()
        assert law.nominal_u.tobytes() == first.inputs.tobytes()
        assert result.cost == objective.true_cost(first.states, first.inputs)
        # the plant's own steps from x0 under the inputs
        xs = [np.asarray(x0, dtype=float)]
        for t in range(T):
            xs.append(plant.step(t, xs[-1], us[t]))
        npt.assert_array_equal(first.states, xs)
        npt.assert_array_equal(first.inputs, us)


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


def test_trial_runs_equal_the_reference_loop_for_every_alpha():
    # a pick-place subproblem law holds states, and the controller it comes
    # in carries a nominal of its own, which a trial must not read
    scenario = load_scenario(bundled_scenario_path("pickplace_arm"))
    plant, objective, cfg = build_plant(scenario), build_objective(scenario), isls_config(scenario)
    T, n = objective.horizon, plant.input_dim
    x0 = draw_initial_state(scenario, np.random.default_rng(3), plant)
    u_hat = 0.2 * np.random.default_rng(4).normal(size=(T + 1, n))
    x_hat = _open_loop_states(plant, x0, u_hat)
    sub = objective.quadratize(x_hat, u_hat, cfg.regularization, cfg.hessian_floor)
    law = extract_controller(solve_esls(linearize_plant(plant, x_hat, u_hat), sub))
    assert any(law.held)
    carrier = Controller.from_gains(law.held, law.gains, law.k, x_hat + 0.01, u_hat - 0.01)
    for alpha in ALPHAS:
        got = closed_loop_step(plant, carrier, alpha * law.k, x_hat, u_hat)
        ref = closed_loop_step_reference(plant, carrier, alpha * law.k, x_hat, u_hat)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref], alpha


def test_isls_with_the_reference_trial_loop_gives_the_same_law(monkeypatch):
    scenario = load_scenario(bundled_scenario_path("pickplace_arm"))
    plant, objective, cfg = build_plant(scenario), build_objective(scenario), isls_config(scenario)
    rng = np.random.default_rng(0)
    for x0 in [draw_initial_state(scenario, rng, plant) for _ in range(2)]:
        a, res_a = isls_optimize(plant, objective, x0, config=cfg)
        with monkeypatch.context() as patched:
            patched.setattr(slsctrl.isls, "closed_loop_step", closed_loop_step_reference)
            b, res_b = isls_optimize(plant, objective, x0, config=cfg)
        assert res_a.iterations > 1 and res_a == res_b
        for name in ("k", "nominal_x", "nominal_u", "hessian_inv"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.held == b.held
        assert [g.tobytes() for g in a.gains] == [g.tobytes() for g in b.gains]


# -- the first nominal ----------------------------------------------------------

COLD_SEED0_ITERATIONS = [7, 8, 7, 60]   # bench_pickplace(seed=0) trials 0-3 from u = 0
COST_RTOL = 1e-9   # a kinematic start may end this much above the cold start, relative


def _pickplace_postures(seed, trials):
    """The bundled arm, its objective and config, and the x0 of bench_pickplace's trials."""
    scenario = load_scenario(bundled_scenario_path("pickplace_arm"))
    plant = build_plant(scenario)
    x0s = [draw_initial_state(scenario, np.random.default_rng(child), plant)
           for child in np.random.SeedSequence(seed).spawn(trials)]
    return plant, build_objective(scenario), isls_config(scenario), x0s


def _bundled_posture():
    """The bundled arm, its objective and config, and its scenario's initial posture."""
    scenario = load_scenario(bundled_scenario_path("pickplace_arm"))
    plant = build_plant(scenario)
    return (plant, build_objective(scenario), isls_config(scenario),
            plant.augment(scenario.initial_state["theta"]))


def test_first_nominal_is_zero_without_arm_keypoints():
    T, m, n = 6, 2, 1
    di = double_integrator_plant(1, 0.1)
    cost = build_viapoint_cost(T, [(T, np.array([1.0, 0.0]), 5.0)], 0.1, state_dim=m)
    objective = TrackingObjective.from_costspec(cost)
    assert di.initial_inputs(objective, np.ones(m)).tobytes() == np.zeros((T + 1, n)).tobytes()
    # a keypoint-free step cost on the arm
    arm = planar_arm_plant([0.6, 0.5], 0.05)
    terminal = _terminal_cost(T, arm.state_dim, lambda x: float(x @ x),
                              lambda x: 2 * x, lambda x: 2 * np.eye(arm.state_dim))
    obj = TrackingObjective(T, arm.state_dim, arm.input_dim, terminal, control_weight=1.0)
    u = arm.initial_inputs(obj, arm.augment([0.2, -0.1]))
    assert u.tobytes() == np.zeros((T + 1, arm.input_dim)).tobytes()
    # so a linear plant's solve still takes the one iteration of criterion 8
    _, res = isls_optimize(di, objective, np.ones(m), config=IslsConfig(regularization=0.0))
    assert res.converged and res.iterations == 1


def test_arm_first_nominal_reaches_its_keypoints_inside_the_joint_limits():
    plant, objective, _, x0s = _pickplace_postures(9, 12)
    p = plant.n_links
    for x0 in x0s:
        u = plant.initial_inputs(objective, x0)
        assert u.shape == (objective.horizon + 1, p) and np.isfinite(u).all()
        xs = _open_loop_states(plant, x0, u)
        for t, weight, target in objective.state_cost.keypoints:
            theta = xs[t, :p]
            assert np.all(theta >= plant.theta_lower - 1e-12)
            assert np.all(theta <= plant.theta_upper + 1e-12)
            # the task coordinates the keypoint weighs heavily are reached
            for i in (2 * p, 2 * p + 4):
                assert abs(xs[t, i] - target[i]) <= 1e-3, (t, i)


def test_arm_first_nominal_is_bit_identical_across_calls():
    plant, objective, _, (x0,) = _pickplace_postures(0, 1)
    first = plant.initial_inputs(objective, x0)
    again = plant.initial_inputs(objective, x0)
    fresh_plant, fresh_objective, _, _ = _pickplace_postures(0, 1)
    assert first.tobytes() == again.tobytes()
    assert first.tobytes() == fresh_plant.initial_inputs(fresh_objective, x0).tobytes()


def test_explicit_zero_start_is_the_cold_start_and_no_better_than_the_kinematic_one():
    plant, objective, cfg, x0s = _pickplace_postures(0, len(COLD_SEED0_ITERATIONS))
    zeros = np.zeros((objective.horizon + 1, plant.input_dim))
    cold = [isls_optimize(plant, objective, x0, init_u=zeros, config=cfg)[1] for x0 in x0s]
    assert [r.iterations for r in cold] == COLD_SEED0_ITERATIONS
    for x0, c in zip(x0s, cold):
        _, k = isls_optimize(plant, objective, x0, config=cfg)
        assert c.converged and k.converged
        assert k.iterations <= 9
        assert k.cost <= c.cost + COST_RTOL * abs(c.cost)


def test_pickplace_sweep_converges_from_the_kinematic_start():
    # from u = 0, seed 9's trial 0 folds joint 2 past its limit and stalls
    rep = bench_pickplace(trials=12, seed=9)
    assert rep.summary["all_converged"]
    assert all(t["place_residual"] <= 5e-3 and t["limit_penalty"] == 0 for t in rep.per_trial)
    unused = bench_pickplace(trials=12, seed=23)
    assert all(t["converged"] and t["iterations"] <= 9 for t in unused.per_trial)


def test_a_folded_local_minimum_shows_in_the_pickplace_record(monkeypatch):
    monkeypatch.setattr(PlanarArmPlant, "initial_inputs", Plant.initial_inputs)
    (trial,) = bench_pickplace(trials=1, seed=9).per_trial
    # the cold start converges, to a minimum folded past joint 2's limit
    assert trial["reason"] == "stationary"
    assert 1.0 < trial["limit_penalty"] < 1.1


# -- the second-order tail --------------------------------------------------------


def _hook_gap(plant, xs, us, seed):
    """Largest relative gap of the arm hook to central differences of ``jacobians``."""
    lam = np.random.default_rng(seed).normal(size=xs.shape)
    H = plant.costate_hessian(xs, us, lam)
    worst = 0.0
    for t, (x, u) in enumerate(zip(xs, us)):
        fd = central_difference(lambda z: lam[t] @ plant.jacobians(t, z, u)[0], x, 1e-6)
        worst = max(worst, float(np.max(np.abs(fd - H[t])) / np.max(np.abs(H[t]))))
    return worst


def test_arm_costate_hessian_matches_differenced_jacobians():
    plant, objective, cfg, x0 = _bundled_posture()
    ctrl, _ = isls_optimize(plant, objective, x0, config=cfg)
    m, n, p, dt = plant.state_dim, plant.input_dim, plant.n_links, plant.dt
    xs, us = ctrl.nominal_x.reshape(-1, m), ctrl.nominal_u.reshape(-1, n)
    assert _hook_gap(plant, xs, us, 0) <= 1e-6
    # postures past a joint limit, at least 1e-3 rad from every kink of the penalty
    rng = np.random.default_rng(1)
    zs = xs.copy()
    zs[:, :p] = rng.uniform(-3.5, 3.5, size=(len(zs), p))
    zs[:, p:2 * p] = rng.normal(size=(len(zs), p))
    phi = zs[:, :p] + dt * zs[:, p:2 * p]
    kink = np.minimum(np.abs(phi - plant.theta_lower), np.abs(phi - plant.theta_upper))
    zs = zs[np.min(kink, axis=1) > 1e-3]
    phi = zs[:, :p] + dt * zs[:, p:2 * p]
    assert ((phi > plant.theta_upper) | (phi < plant.theta_lower)).any(axis=1).sum() >= 20
    assert _hook_gap(plant, zs, us[:len(zs)], 2) <= 1e-6


def test_linear_plants_stay_gauss_newton(monkeypatch):
    plant = LinearPlant(np.array([[1.0]]), np.array([[1.0]]))
    T = 4
    assert plant.costate_hessian(np.zeros((T + 1, 1)), np.zeros((T + 1, 1)),
                                 np.ones((T + 1, 1))) is None
    # the quartic's tail takes steps below the switch, where only the hook is consulted
    obj = TrackingObjective(
        T, 1, 1,
        _terminal_cost(T, 1, lambda x: float(x[0] ** 4), lambda x: np.array([4 * x[0] ** 3]),
                       lambda x: np.array([[12 * x[0] ** 2]])),
        control_weight=1e-8)
    cfg = IslsConfig(tolerance=1e-12, regularization=0.0)
    a, res_a = isls_optimize(plant, obj, np.array([1.0]), config=cfg)
    assert min(h.step_norm for h in res_a.history) <= NEWTON_SWITCH
    monkeypatch.setattr(slsctrl.isls, "NEWTON_SWITCH", -np.inf)
    b, res_b = isls_optimize(plant, obj, np.array([1.0]), config=cfg)
    assert res_a == res_b and not any(h.second_order for h in res_a.history)
    for name in ("k", "nominal_x", "nominal_u", "hessian_inv"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert [g.tobytes() for g in a.gains] == [g.tobytes() for g in b.gains]


def test_an_indefinite_second_order_pass_falls_back_to_gauss_newton(monkeypatch):
    plant, objective, cfg, (x0,) = _pickplace_postures(0, 1)
    raised = []

    def solve(system, cost):
        try:
            return solve_esls(system, cost)
        except ValueError as err:
            raised.append(str(err))
            raise

    monkeypatch.setattr(slsctrl.isls, "NEWTON_SWITCH", np.inf)
    monkeypatch.setattr(slsctrl.isls, "solve_esls", solve)
    _, res = isls_optimize(plant, objective, x0, config=cfg)
    assert any("at t=1 is not positive definite" in msg for msg in raised)
    assert res.converged and res.reason in ("tolerance", "stationary")
    assert not all(h.second_order for h in res.history)


def _assert_ships_the_gauss_newton_law(plant, objective, cfg, ctrl, res):
    """``ctrl`` is the law of the subproblem ``objective.quadratize`` gives at its nominal."""
    m, n = plant.state_dim, plant.input_dim
    x_hat, u_hat = ctrl.nominal_x.reshape(-1, m), ctrl.nominal_u.reshape(-1, n)
    system = linearize_plant(plant, x_hat, u_hat)
    sub = objective.quadratize(x_hat, u_hat, cfg.regularization, cfg.hessian_floor)
    fresh = extract_controller(solve_esls(system, sub))
    for name in ("k", "hessian_inv"):
        assert getattr(ctrl, name).tobytes() == getattr(fresh, name).tobytes()
    assert [g.tobytes() for g in ctrl.gains] == [g.tobytes() for g in fresh.gains]
    assert res.stationarity == float(np.max(np.abs(fresh.k)))
    check_law(system, sub, ctrl)
    return system, sub


def test_the_shipped_law_is_the_gauss_newton_subproblem_law():
    plant, objective, cfg, x0s = _pickplace_postures(0, 2)
    for x0 in x0s:
        ctrl, res = isls_optimize(plant, objective, x0, config=cfg)
        # the last step carried the term; the stopping pass, armed, did not
        assert res.history[-1].second_order and res.history[-1].step_norm <= NEWTON_SWITCH
        system, sub = _assert_ships_the_gauss_newton_law(plant, objective, cfg, ctrl, res)
        # the law with the term at that nominal is another one
        m, n = plant.state_dim, plant.input_dim
        x_hat, u_hat = ctrl.nominal_x.reshape(-1, m), ctrl.nominal_u.reshape(-1, n)
        curvature = slsctrl.isls._costate_curvature(plant, objective, system.A, x_hat, u_hat)
        newton = slsctrl.isls._subproblem_law(objective, system, x_hat, u_hat, cfg, curvature)
        assert newton.k.tobytes() != ctrl.k.tobytes()
        precompute_gain_maps(system, sub, ctrl)


def test_an_armed_pass_solves_only_the_gauss_newton_subproblem(monkeypatch):
    plant, objective, cfg, x0 = _bundled_posture()
    calls = {"solve_esls": 0, "curvature": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(slsctrl.isls, "solve_esls",
                        counted("solve_esls", slsctrl.isls.solve_esls))
    monkeypatch.setattr(slsctrl.isls, "_costate_curvature",
                        counted("curvature", slsctrl.isls._costate_curvature))
    _, res = isls_optimize(plant, objective, x0, config=cfg)
    # one solve per pass: 7 passes that step and the armed one that stops;
    # the term only on the two un-armed passes after a step below the switch
    assert (res.reason, res.iterations) == ("tolerance", 7)
    assert calls == {"solve_esls": 8, "curvature": 2}


def test_an_armed_pass_that_misses_the_stop_steps_on_and_converges():
    plant, objective, cfg, x0 = _bundled_posture()
    _, base = isls_optimize(plant, objective, x0, config=cfg)
    # the armed eighth pass stopped the bundled solve; its step misses this bound
    tight = dataclasses.replace(cfg, stationarity_tolerance=1e-9)
    ctrl, res = isls_optimize(plant, objective, x0, config=tight)
    assert (base.reason, base.iterations) == ("tolerance", 7)
    assert res.history[:7] == base.history
    assert res.history[7].step_norm > tight.stationarity_tolerance
    assert not res.history[7].second_order
    assert res.converged and res.reason in ("tolerance", "stationary")
    assert res.stationarity <= tight.stationarity_tolerance
    assert res.cost <= base.cost
    _assert_ships_the_gauss_newton_law(plant, objective, tight, ctrl, res)
