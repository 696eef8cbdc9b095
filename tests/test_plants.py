"""Plants, rollouts, and the Riccati/MPC tracking baselines."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from slsctrl import (
    Controller,
    CorrelationSpec,
    LinearPlant,
    NoiseModel,
    Plant,
    StateCostFunction,
    TimeVaryingLinearSystem,
    TrackingObjective,
    add_correlation,
    batch_lqt,
    build_viapoint_cost,
    double_integrator_plant,
    dp_lqt,
    extract_controller,
    isls_optimize,
    joint_limit_violation,
    linear_system_from_plant,
    linearize_plant,
    mpc_lqt_rollout,
    planar_arm_plant,
    rollout,
    solve_esls,
    wrap_angle,
)
from slsctrl.plants import _replan_from
from slsctrl.solver import _Episode

from oracles import (
    fd_jacobian,
    planar_fk,
    riccati_regulator_gains,
    spectral_radius,
    two_link_ik,
)


def test_double_integrator_step():
    plant = double_integrator_plant(1, 0.1)
    npt.assert_allclose(plant.step(0, np.array([0.0, 1.0]), np.zeros(1)), [0.1, 1.0])
    npt.assert_allclose(plant.step(0, np.zeros(2), np.zeros(1)), [0.0, 0.0])
    # explicit Euler: the input enters the velocity only
    npt.assert_allclose(plant.B[:, 0], [0.0, 0.1])


def test_linear_step_takes_lists_and_integer_arrays():
    rng = np.random.default_rng(8)
    plant = LinearPlant(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
    ref = plant.step(0, np.array([3.0, -2.0, 7.0]), np.array([5.0, 1.0]))
    for x, u in (([3, -2, 7], [5, 1]), (np.array([3, -2, 7]), np.array([5, 1])),
                 ([3.0, -2.0, 7.0], (5.0, 1.0))):
        out = plant.step(0, x, u)
        assert out.dtype == np.float64 and out.tobytes() == ref.tobytes()


def test_wrap_angle():
    npt.assert_allclose(wrap_angle(np.pi + 0.1), -np.pi + 0.1, atol=1e-12)
    npt.assert_allclose(wrap_angle(-np.pi - 0.1), np.pi - 0.1, atol=1e-12)
    npt.assert_allclose(wrap_angle(np.pi), np.pi)
    npt.assert_allclose(wrap_angle(0.3), 0.3)
    # one number is wrapped with Python's float %, an array with np.mod; both
    # follow one sign rule, so they agree bit for bit, also just below -pi,
    # where np.mod rounds up to 2 pi and the result is pi
    def reference(a):
        r = np.mod(np.asarray(a, dtype=float) + np.pi, 2 * np.pi) - np.pi
        return np.where(r == -np.pi, np.pi, r)

    below = np.nextafter(-np.pi, -4.0)
    assert np.mod(below + np.pi, 2 * np.pi) == 2 * np.pi
    values = [np.pi, -np.pi, 3 * np.pi, -3 * np.pi, below, np.nextafter(np.pi, 4.0), 0.0,
              -0.0, 0.3, -7.5, 1e9]
    for a in values:
        for given in (float(a), np.float64(a), np.array(a)):
            got = wrap_angle(given)
            assert type(got) is float
            assert np.float64(got).tobytes() == reference(given).tobytes(), given
    assert wrap_angle(below) == np.pi and wrap_angle(-np.pi) == np.pi
    wrapped = wrap_angle(np.array(values))
    assert isinstance(wrapped, np.ndarray)
    assert wrapped.tobytes() == reference(values).tobytes()


def test_arm_forward_kinematics():
    arm = planar_arm_plant([1.0, 1.0], 0.05)
    npt.assert_allclose(arm.forward_kinematics(np.zeros(2)), [2.0, 0.0], atol=1e-14)
    npt.assert_allclose(arm.forward_kinematics([np.pi / 2, 0.0]), [0.0, 2.0],
                        atol=1e-14)
    rng = np.random.default_rng(0)
    for _ in range(10):
        th = rng.uniform(-np.pi, np.pi, size=2)
        npt.assert_allclose(arm.forward_kinematics(th), planar_fk([1.0, 1.0], th),
                            atol=1e-12)


def test_arm_ee_jacobian_vs_fd():
    arm = planar_arm_plant([0.8, 0.6, 0.4], 0.05)
    rng = np.random.default_rng(1)
    for _ in range(10):
        th = rng.uniform(-2, 2, size=3)
        J = arm.ee_jacobian(th)
        J_ref = fd_jacobian(arm.forward_kinematics, th)
        npt.assert_allclose(J, J_ref, atol=1e-6)


def test_plant_jacobians_fallback_matches_analytic():
    # a plant that defines only step gets Plant.jacobians' central differences
    arm = planar_arm_plant([0.8, 0.6, 0.4], 0.05)

    class StepOnly(Plant):
        state_dim, input_dim, dt = arm.state_dim, arm.input_dim, arm.dt

        def step(self, t, x, u):
            return arm.step(t, x, u)

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        z = arm.augment(rng.uniform(-2, 2, size=3), rng.uniform(-1, 1, size=3))
        u = rng.uniform(-1, 1, size=3)
        for fd, exact in zip(StepOnly().jacobians(0, z, u), arm.jacobians(0, z, u)):
            assert fd.shape == exact.shape
            worst = max(worst, float(np.max(np.abs(fd - exact))))
    assert worst < 1e-7


def test_arm_augmented_jacobians_vs_fd():
    # one stacked call over (T+1, m) states, some beyond the joint limits,
    # must equal the single-step calls row by row, and both must match
    # central differences of the dynamics
    rng = np.random.default_rng(2)
    T = 20
    arm = planar_arm_plant([0.5, 0.4], 0.05, theta_lower=[-1.5, -1.5], theta_upper=[1.5, 1.5])
    Z = np.array([arm.augment(rng.uniform(-2.2, 2.2, size=2), rng.uniform(-1, 1, size=2))
                  for _ in range(T + 1)])
    U = rng.uniform(-1, 1, size=(T + 1, 2))
    assert np.any(np.abs(Z[:, :2]) > 1.5)
    A, B = arm.jacobians(np.arange(T + 1), Z, U)
    assert A.shape == (T + 1, 11, 11) and B.shape == (T + 1, 11, 2)
    fk = arm.forward_kinematics(Z[:, :2])
    J_ee = arm.ee_jacobian(Z[:, :2])
    worst_row, worst_fd = 0.0, 0.0
    for t in range(T + 1):
        z, u = Z[t], U[t]
        At, Bt = arm.jacobians(t, z, u)
        for stacked, single in ((A[t], At), (B[t], Bt),
                                (fk[t], arm.forward_kinematics(z[:2])),
                                (J_ee[t], arm.ee_jacobian(z[:2]))):
            scale = max(1.0, np.max(np.abs(single)))
            worst_row = max(worst_row, np.max(np.abs(stacked - single)) / scale)
        A_ref = fd_jacobian(lambda zz: arm.step(t, zz, u), z)
        B_ref = fd_jacobian(lambda uu: arm.step(t, z, uu), u)
        worst_fd = max(worst_fd,
                       np.max(np.abs(At - A_ref)) / max(1.0, np.max(np.abs(A_ref))),
                       np.max(np.abs(Bt - B_ref)) / max(1.0, np.max(np.abs(B_ref))))
    assert worst_row <= 1e-15
    assert worst_fd <= 1e-4


def _step_reference(arm, z, u):
    """The arm's next state assembled from the public kinematic helpers, in NumPy."""
    p = arm.n_links
    theta_new = z[:p] + arm.dt * z[p:2 * p]
    return np.concatenate([
        theta_new, z[p:2 * p] + arm.dt * u, arm.forward_kinematics(theta_new),
        arm.ee_jacobian(theta_new) @ z[p:2 * p], [wrap_angle(theta_new.sum())],
        joint_limit_violation(theta_new, arm.theta_lower, arm.theta_upper)])


def test_arm_step_matches_its_kinematic_definition():
    # step forms the end-effector velocity without building J and reads the
    # orientation off the cumulative angles; the reference assembles the
    # state from the public helpers.  States go beyond the joint limits, sit
    # on them, and put the angle sum at and next to +-pi, where np.mod in
    # wrap_angle can round up to 2 pi.  Seven links are the paper's arm, and
    # nine pass the eight-element block of NumPy's pairwise summation.
    rng = np.random.default_rng(7)
    for p in (1, 2, 3, 7, 9):
        lower, upper = -1.2 * np.ones(p), np.linspace(0.9, 1.4, p)
        thetas = list(rng.uniform(-3.5, 3.5, size=(40, p))) + [lower, upper]
        for angle in (np.pi, -np.pi):
            for near in (angle, np.nextafter(angle, 4.0), np.nextafter(angle, -4.0)):
                thetas += [np.roll(np.r_[near, np.zeros(p - 1)], k) for k in range(p)]
                theta = rng.uniform(-1.0, 1.0, size=p)
                theta[-1] = near - theta[:-1].sum()
                thetas.append(theta)
        n_special = len(thetas) - 40
        # zero joint velocity on the special states, so that theta' = theta
        theta_dots = np.vstack([rng.uniform(-2.0, 2.0, size=(40, p)), np.zeros((n_special, p))])
        Z = np.hstack([thetas, theta_dots, rng.normal(size=(len(thetas), p + 5))])
        U = rng.uniform(-2.0, 2.0, size=(len(thetas), p))
        assert np.any(np.asarray(thetas) < lower) and np.any(np.asarray(thetas) > upper)
        arm = planar_arm_plant(np.linspace(0.7, 0.3, p), 0.05, theta_lower=lower,
                               theta_upper=upper)
        steps = np.array([arm.step(i, z, u) for i, (z, u) in enumerate(zip(Z, U))])
        for i, (z, u) in enumerate(zip(Z, U)):
            ref = _step_reference(arm, z, u)
            assert np.max(np.abs(steps[i] - ref)) <= 1e-15 * np.max(np.abs(ref)), (p, i)
        # the sums hit +-pi exactly and the round-up of np.mod to 2 pi
        sums = (Z[:, :p] + arm.dt * Z[:, p:2 * p]).sum(axis=1)
        assert np.any(sums == np.pi) and np.any(sums == -np.pi)
        assert np.any(np.mod(sums + np.pi, 2 * np.pi) == 2 * np.pi)
        orientation = steps[:, 2 * p + 4]
        assert np.all((-np.pi < orientation) & (orientation <= np.pi))


def test_arm_step_of_one_state_matches_the_stack_on_non_finite_states():
    # math.cos raises on an infinite angle where np.cos gives NaN; the step
    # must never raise, and on each state of the stack it gives the NaN and
    # inf entries of the NumPy reference over the public helpers
    p = 3
    rng = np.random.default_rng(11)
    Z, U = [], []
    for bad in (np.inf, -np.inf, np.nan):
        for index in (0, p - 1, p, 2 * p - 1):   # an angle or a velocity
            z = rng.uniform(-1.0, 1.0, size=3 * p + 5)
            z[index] = bad
            Z.append(z)
            U.append(rng.uniform(-1.0, 1.0, size=p))
        for index in (0, p - 1):                 # an input
            Z.append(rng.uniform(-1.0, 1.0, size=3 * p + 5))
            u = rng.uniform(-1.0, 1.0, size=p)
            u[index] = bad
            U.append(u)
    z = np.zeros(3 * p + 5)                      # angles that cancel to NaN
    z[:2] = np.inf, -np.inf
    Z.append(z)
    U.append(np.zeros(p))
    arm = planar_arm_plant([0.4, 0.35, 0.25], 0.05)
    steps = np.array([arm.step(i, z, u) for i, (z, u) in enumerate(zip(Z, U))])
    with np.errstate(invalid="ignore"):
        refs = np.array([_step_reference(arm, z, u) for z, u in zip(Z, U)])
    assert np.isnan(steps).any() and np.isinf(steps).any()
    for pattern in (np.isnan, np.isposinf, np.isneginf):
        npt.assert_array_equal(pattern(steps), pattern(refs))
    finite = np.isfinite(refs)
    npt.assert_allclose(steps[finite], refs[finite], rtol=1e-15, atol=1e-15)
    # max(a, nan) is a where np.maximum(a, nan) is NaN, so a NaN limit is refused
    with pytest.raises(ValueError, match="lower <= upper"):
        planar_arm_plant([0.4, 0.35, 0.25], 0.05, theta_upper=[1.0, np.nan, 1.0])


def test_arm_step_rejects_misshaped_states_and_inputs():
    # the float body zips z and u with the links, which would truncate them
    arm = planar_arm_plant([0.5, 0.4], 0.05)
    z, u = arm.augment([0.7, -0.4], [0.3, 0.2]), np.array([0.5, -0.1])
    for bad_z, bad_u in ((z[:-1], u), (np.r_[z, 0.0], u), (z, u[:1]), (z, np.r_[u, 0.0]),
                         (np.array([z, z]), np.array([u, u])), (z, u[None])):
        with pytest.raises(ValueError, match=r"step takes z \(11,\) and u \(2,\)"):
            arm.step(0, bad_z, bad_u)


def test_linearize_linear_plant_is_exact():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 2))
    plant = LinearPlant(A, B)
    T = 4
    xs = rng.normal(size=(T + 1, 3))
    us = rng.normal(size=(T + 1, 2))
    # feasible nominal required: regenerate by rolling the plant forward
    for t in range(T):
        xs[t + 1] = plant.step(t, xs[t], us[t])
    system = linearize_plant(plant, xs, us)
    for t in range(T + 1):
        npt.assert_allclose(system.A[t], A, atol=1e-12)
        npt.assert_allclose(system.B[t], B, atol=1e-12)
    sys2 = linear_system_from_plant(plant, T)
    npt.assert_allclose(sys2.A[0], A)


def test_linear_system_from_plant_equals_the_per_step_build():
    rng = np.random.default_rng(4)
    T = 9
    for plant in (double_integrator_plant(3, 0.01),
                  LinearPlant(rng.normal(size=(4, 4)), rng.normal(size=(4, 2)))):
        zeros_x, zeros_u = np.zeros(plant.state_dim), np.zeros(plant.input_dim)
        per_step = TimeVaryingLinearSystem(*zip(*(plant.jacobians(t, zeros_x, zeros_u)
                                                  for t in range(T + 1))))
        system = linear_system_from_plant(plant, T)
        for got, want in ((system.A, per_step.A), (system.B, per_step.B)):
            assert got.dtype == want.dtype and got.shape == want.shape
            npt.assert_array_equal(got, want)


def test_open_loop_and_step_feedback_controllers():
    T, m, n = 3, 2, 1
    inputs = np.arange((T + 1) * n, dtype=float).reshape(T + 1, n)
    ctrl = Controller.open_loop(inputs, m)
    assert ctrl.held == [()] * (T + 1) and (ctrl.horizon, ctrl.state_dim) == (T, m)
    npt.assert_array_equal(ctrl.control(2, np.full(3 * m, 7.0)), inputs[2])
    with pytest.raises(ValueError, match="inputs must be a finite"):
        Controller.open_loop(np.r_[inputs[:-1], [[np.nan]]], m)
    gains = np.zeros((T + 1, n, m))
    gains[1] = [[2.0, 0.0]]
    offs = np.zeros((T + 1, n))
    offs[1] = 5.0
    fb = Controller.from_gains([()] * (T + 1), list(gains), offs.ravel())
    x_hist = np.array([[0.0, 0.0], [3.0, 1.0]])
    npt.assert_allclose(fb.control(1, x_hist.ravel()), [11.0])
    assert fb.horizon == T and (fb.state_dim, fb.input_dim) == (m, n)
    npt.assert_array_equal(fb.K.dense[n:2 * n, m:2 * m], gains[1])
    with pytest.raises(ValueError, match="t\\+1 state blocks"):
        fb.control(1, x_hist[1])


def test_rollout_determinism_and_impulse_decay():
    rng = np.random.default_rng(4)
    m, n, T = 2, 1, 30
    A = np.array([[1.0, 0.2], [0.0, 1.0]])
    B = np.array([[0.0], [0.2]])
    plant = LinearPlant(A, B)
    cost = build_viapoint_cost(T, [(t, np.zeros(m), 1.0) for t in range(T + 1)],
                               0.1, state_dim=m, input_dim=n)
    st = TimeVaryingLinearSystem.constant(A, B, T)
    ctrl = extract_controller(solve_esls(st, cost))
    # stability precheck on the time-invariant midpoint gain
    dp = dp_lqt(TimeVaryingLinearSystem.constant(A, B, T), cost)
    K_mid = dp.gains[T // 2]
    assert spectral_radius(A + B @ K_mid) < 1.0

    noise = NoiseModel(T, np.zeros(m), np.full(m, 1e-4), np.full(m, 1e-6))
    tr1 = rollout(plant, ctrl, noise=noise, seed=11)
    tr2 = rollout(plant, ctrl, noise=noise, seed=11)
    npt.assert_array_equal(tr1.states, tr2.states)
    npt.assert_array_equal(tr1.inputs, tr2.inputs)

    impulse = np.array([0.5, -0.2])
    tr = rollout(plant, ctrl, w=np.zeros((T + 1) * m),
                 perturbations=[(10, impulse)])
    assert np.linalg.norm(tr.states[T]) < np.linalg.norm(impulse)
    # before the impulse nothing moves
    assert np.max(np.abs(tr.states[:10])) == 0.0


def test_rollout_rejects_nonfinite_start_and_disturbance():
    plant = double_integrator_plant(1, 0.1)
    ctrl = Controller.open_loop(np.zeros((4, 1)), 2)
    with pytest.raises(ValueError, match="x0"):
        rollout(plant, ctrl, x0=[np.inf, 0.0])
    w = np.zeros(8)
    w[5] = np.nan
    with pytest.raises(ValueError, match="w has"):
        rollout(plant, ctrl, w=w)


def test_rollout_rejects_steps_outside_the_horizon_and_misshapen_impulses():
    plant = double_integrator_plant(1, 0.1)
    ctrl = Controller.open_loop(np.zeros((11, 1)), 2)
    for t in (15, -1):
        with pytest.raises(ValueError, match=rf"perturbation step {t} outside \[0, 10\]"):
            rollout(plant, ctrl, perturbations=[(t, [1.0, 0.0])])
    for t in (15, -2):
        with pytest.raises(ValueError, match=f"feedforward_schedule step {t} outside"):
            rollout(plant, ctrl, feedforward_schedule=[(t, np.ones(11))])
    # a scalar impulse is not broadcast into every coordinate
    with pytest.raises(ValueError, match=r"shape \(\), expected \(2,\)"):
        rollout(plant, ctrl, perturbations=[(3, 1.0)])
    # both ends of the horizon are steps
    tr = rollout(plant, ctrl, perturbations=[(0, [1.0, 0.0]), (10, [0.0, 1.0])],
                 feedforward_schedule=[(10, np.ones(11))])
    npt.assert_array_equal(tr.states[[0, 10]], [[1.0, 0.0], [1.0, 1.0]])
    npt.assert_array_equal(tr.inputs[:, 0], [0.0] * 10 + [1.0])


def test_rollout_rejects_steps_that_are_not_integers():
    # a fractional step would run at its floor and True at step 1
    plant = double_integrator_plant(1, 0.1)
    ctrl = Controller.open_loop(np.zeros((11, 1)), 2)
    for t in (3.7, 3.0, True, np.True_, "3", np.float64(3.0)):
        with pytest.raises(ValueError, match=re.escape(f"perturbation step {t!r} is not")):
            rollout(plant, ctrl, perturbations=[(t, [1.0, 0.0])])
        with pytest.raises(ValueError, match="feedforward_schedule step .* is not an integer"):
            rollout(plant, ctrl, feedforward_schedule=[(t, np.ones(11))])
    # NumPy integers are steps
    ref = rollout(plant, ctrl, perturbations=[(3, [1.0, 0.0])],
                  feedforward_schedule=[(5, np.ones(11))])
    tr = rollout(plant, ctrl, perturbations=[(np.int64(3), [1.0, 0.0])],
                 feedforward_schedule=[(np.int32(5), np.ones(11))])
    npt.assert_array_equal(tr.states, ref.states)
    npt.assert_array_equal(tr.inputs, ref.inputs)


def test_realize_disturbance_precedence():
    plant = LinearPlant(np.eye(2), np.eye(2))
    ctrl = Controller.open_loop(np.zeros((4, 2)), 2)
    w = np.zeros(8)
    w[0] = 1.0
    with pytest.raises(ValueError):
        rollout(plant, ctrl, x0=np.ones(2), w=w)
    tr = rollout(plant, ctrl, x0=np.array([2.0, 0.0]), noise=NoiseModel.zero(3, 2))
    npt.assert_allclose(tr.states[0], [2.0, 0.0])


def test_rollout_without_noise_is_reproducible():
    # no noise draws nothing: every disturbance entry past x0 is +0.0
    plant = double_integrator_plant(2, 0.1)
    ctrl = Controller.open_loop(np.ones((21, 2)), 4)
    x0 = np.array([1.0, -1.0, 0.0, 0.5])
    a, b = (rollout(plant, ctrl, x0=x0) for _ in range(2))
    for name in ("states", "inputs", "noise"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert not np.signbit(a.noise[1:]).any()


def test_dp_gains_against_riccati_oracle():
    rng = np.random.default_rng(5)
    T, m, n = 6, 2, 1
    A = rng.normal(size=(m, m)) * 0.7
    B = rng.normal(size=(m, n))
    cost = build_viapoint_cost(T, [(t, np.zeros(m), 1.0) for t in range(T + 1)],
                               0.5, state_dim=m, input_dim=n)
    dp = dp_lqt(TimeVaryingLinearSystem.constant(A, B, T), cost)
    gains_ref = riccati_regulator_gains(A, B, np.eye(m), 0.5 * np.eye(n), T)
    for t in range(T + 1):
        npt.assert_allclose(dp.gains[t], gains_ref[t], atol=1e-10)
        assert dp.held[t] == ()
    npt.assert_allclose(dp.k, np.zeros((T + 1) * n), atol=1e-12)
    # scalar one-step closed form
    dp1 = dp_lqt(TimeVaryingLinearSystem.constant(
        np.array([[1.0]]), np.array([[1.0]]), 1),
        build_viapoint_cost(1, [(0, np.zeros(1), 1.0), (1, np.zeros(1), 1.0)],
                            1.0, state_dim=1, input_dim=1))
    npt.assert_allclose(dp1.gains[0], [[-0.5]], atol=1e-12)
    # zero state cost: all gains vanish
    dp0 = dp_lqt(TimeVaryingLinearSystem.constant(A, B, T),
                 build_viapoint_cost(T, [], 1.0, state_dim=m, input_dim=n))
    assert max(np.max(np.abs(K)) for K in dp0.gains) == 0.0


def test_dp_rejects_cross_time_weights():
    from slsctrl import CorrelationSpec, add_correlation
    cost = build_viapoint_cost(4, [(4, np.zeros(2), 1.0)], 1.0, state_dim=2)
    cost = add_correlation(cost, CorrelationSpec(
        1, 3, np.eye(2), np.zeros(2), np.eye(2)))
    with pytest.raises(ValueError):
        dp_lqt(TimeVaryingLinearSystem.constant(np.eye(2), np.eye(2), 4), cost)


def test_dp_tracking_feedforward_reaches_target():
    # tracking a reachable viapoint with loose effort: DP plan gets close
    rng = np.random.default_rng(6)
    T, m, n = 10, 2, 1
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    g = np.array([0.8, 0.0])
    cost = build_viapoint_cost(T, [(T, g, 1e4)], 1e-3, state_dim=m, input_dim=n)
    dp = dp_lqt(TimeVaryingLinearSystem.constant(A, B, T), cost)
    tr = rollout(LinearPlant(A, B), dp, w=np.zeros((T + 1) * m))
    npt.assert_allclose(tr.states[T], g, atol=1e-2)
    # matches the batch least-squares plan on the same problem
    st = TimeVaryingLinearSystem.constant(A, B, T)
    u_batch = batch_lqt(st, cost)
    npt.assert_allclose(tr.inputs.reshape(-1), u_batch, atol=1e-8)


def test_mpc_reduces_to_dp_without_correlations():
    rng = np.random.default_rng(7)
    T, m, n = 12, 2, 1
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    plant = LinearPlant(A, B)
    cost = build_viapoint_cost(
        T, [(6, np.array([0.5, 0.0]), 100.0), (12, np.array([-0.2, 0.0]), 100.0)],
        0.01, state_dim=m, input_dim=n)
    w = np.zeros((T + 1) * m)
    w[0] = 0.3
    tr_mpc = mpc_lqt_rollout(plant, cost, recompute_time=6, w=w)
    dp = dp_lqt(TimeVaryingLinearSystem.constant(A, B, T), cost)
    tr_dp = rollout(plant, dp, w=w)
    npt.assert_allclose(tr_mpc.states, tr_dp.states, atol=1e-9)


def test_mpc_conditions_correlation_on_realized_state():
    # a correlation from t1=3 to t2=T spans the re-solve at t_r=6: before
    # t_r the inputs are the diagonal tracker's, after it the target of x_T
    # is frozen to the realized x_3, which an impulse at t=2 moved
    from slsctrl import CorrelationSpec, add_correlation
    T, m, n = 12, 2, 1
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    plant = LinearPlant(A, B)
    c = np.array([0.2, 0.0])
    cost = build_viapoint_cost(T, [(3, np.array([0.5, 0.0]), 100.0)], 0.01,
                               state_dim=m, input_dim=n)
    cost = add_correlation(cost, CorrelationSpec(3, T, np.eye(m), c, 1e4 * np.eye(m)))
    w = np.zeros((T + 1) * m)
    kick = [(2, np.array([0.1, 0.0]))]
    tr_mpc = mpc_lqt_rollout(plant, cost, recompute_time=6, w=w, perturbations=kick)
    dp = dp_lqt(TimeVaryingLinearSystem.constant(A, B, T), cost.diagonal_projection())
    tr_dp = rollout(plant, dp, w=w, perturbations=kick)
    npt.assert_array_equal(tr_mpc.inputs[:6], tr_dp.inputs[:6])

    def gap(tr):
        return np.linalg.norm(tr.states[3] + c - tr.states[T])

    assert gap(tr_mpc) < 0.1 * gap(tr_dp)


def test_arm_reaching_target_is_reachable():
    # the reaching tests elsewhere assume this target is inside the workspace
    target = np.array([0.7, 0.5])
    sol = two_link_ik([0.8, 0.6], target)
    assert sol is not None
    npt.assert_allclose(planar_fk([0.8, 0.6], sol), target, atol=1e-10)


# -- rollout against the stateless query ----------------------------------------


def _reference_rollout(plant, law, w, perturbations=(), schedule=()):
    """The rollout loop on ``law.control(t, xs[:t + 1])``, the single query, at every step."""
    T = law.horizon
    w = np.asarray(w, dtype=float).reshape(T + 1, plant.state_dim)
    kicks, swaps = dict(perturbations), dict(schedule)
    xs, us = np.zeros((T + 1, plant.state_dim)), np.zeros((T + 1, plant.input_dim))
    for t in range(T + 1):
        x = w[0].copy() if t == 0 else plant.step(t - 1, xs[t - 1], us[t - 1]) + w[t]
        if t in kicks:
            x = x + kicks[t]
        xs[t] = x
        if t in swaps:
            law = law.with_feedforward(swaps[t])
        us[t] = law.control(t, xs[:t + 1])
    return xs, us


def _assert_same_bits(traj, xs, us):
    assert traj.states.tobytes() == xs.tobytes()
    assert traj.inputs.tobytes() == us.tobytes()


def _correlated_cost(T, m, n):
    cost = build_viapoint_cost(T, [(T // 3, np.full(m, 0.4), 50.0), (T, np.zeros(m), 100.0)],
                               0.05, state_dim=m, input_dim=n)
    cost = add_correlation(cost, CorrelationSpec(T // 3, 2 * T // 3, np.eye(m),
                                                 np.full(m, 0.1), 30.0 * np.eye(m)))
    return add_correlation(cost, CorrelationSpec(T // 2, T, 0.5 * np.eye(m), np.zeros(m),
                                                 10.0 * np.eye(m)))


def _arm_law_with_nominal(T):
    """An isls law on the 2-link arm with a held state: gains about a nominal."""
    arm = planar_arm_plant([0.8, 0.6], 0.05)
    m = arm.state_dim
    g, weight, ee = np.zeros(m), np.zeros(m), np.zeros((m, m))
    g[4:6], weight[4:6], ee[4:6, 4:6] = [0.7, 0.5], 1e3, np.eye(2)
    obj = TrackingObjective(
        T, m, arm.input_dim, StateCostFunction.quadratic_viapoints(T, [(T, g, weight)], m),
        correlations=[CorrelationSpec(T // 3, 2 * T // 3, np.eye(m), np.zeros(m), 10.0 * ee)],
        control_weight=1e-2)
    law, _ = isls_optimize(arm, obj, arm.augment(np.array([0.3, 0.4]), np.zeros(2)))
    assert law.nominal_x is not None and any(law.held)
    return arm, law


def test_rollout_inputs_have_the_bits_of_the_stateless_query():
    # a memoryless law, one with held states, an open-loop plan and an isls
    # law with a nominal, bare, kicked and retargeted at step 0, mid-horizon and T
    rng = np.random.default_rng(31)
    T, m, n = 24, 4, 2
    plant = double_integrator_plant(2, 0.1)
    system = linear_system_from_plant(plant, T)
    cost = _correlated_cost(T, m, n)
    arm, arm_law = _arm_law_with_nominal(T)
    cases = [(plant, dp_lqt(system, cost.diagonal_projection())),
             (plant, extract_controller(solve_esls(system, cost))),
             (plant, Controller.open_loop(rng.normal(size=(T + 1, n)), m)),
             (arm, arm_law)]
    assert any(cases[1][1].held) and not any(cases[0][1].held)
    for plant, law in cases:
        m = plant.state_dim
        w = 1e-2 * rng.normal(size=(T + 1) * m)
        kicks = [(t, 1e-2 * rng.normal(size=m)) for t in (0, T // 2, T)]
        swaps = [(t, law.k * (1 + 0.1 * i) + 1e-3 * rng.normal(size=law.k.size))
                 for i, t in enumerate((0, T // 2, T))]
        for options in ({}, {"perturbations": kicks}, {"feedforward_schedule": swaps},
                        {"perturbations": kicks[1:], "feedforward_schedule": swaps[1:]}):
            traj = rollout(plant, law, w=w, **options)
            _assert_same_bits(traj, *_reference_rollout(
                plant, law, w, options.get("perturbations", ()),
                options.get("feedforward_schedule", ())))
        # a schedule acts on a copy: the law itself still has its own feedforward
        _assert_same_bits(rollout(plant, law, w=w), *_reference_rollout(plant, law, w))


def test_rollouts_of_one_shape_share_their_feedforward_rows():
    # the k_t slices are made once per (T+1, n), not once per rollout
    T, m, n = 24, 4, 2
    xs, us = np.zeros((T + 1, m)), np.zeros((T + 1, n))
    rows = [[k_rows for _, _, k_rows in _Episode(law, xs, us)._steps]
            for law in (Controller.open_loop(np.zeros((T + 1, n)), m),
                        Controller.open_loop(np.ones((T + 1, n)), m))]
    assert rows[0] == [slice(t * n, (t + 1) * n) for t in range(T + 1)]
    assert all(a is b for a, b in zip(*rows))


class _CountingPlant(LinearPlant):
    """A linear plant that counts its steps."""

    steps = 0

    def step(self, t, x, u):
        self.steps += 1
        return super().step(t, x, u)


def test_mpc_rollout_has_the_bits_of_an_explicit_two_phase_run():
    rng = np.random.default_rng(32)
    T, m, n = 20, 4, 2
    plant = double_integrator_plant(2, 0.1)
    counting = _CountingPlant(plant.A, plant.B, plant.dt)
    system = linear_system_from_plant(plant, T)
    cost = _correlated_cost(T, m, n)
    phase1 = dp_lqt(system, cost.diagonal_projection())
    for t_r in (1, T // 3, T // 2 + 1, T):
        w = 1e-2 * rng.normal(size=(T + 1, m))
        kicks = {t: 1e-2 * rng.normal(size=m) for t in (0, t_r, T)}
        counting.steps = 0
        traj = mpc_lqt_rollout(counting, cost, t_r, w=w, perturbations=kicks.items())
        # phase 1 stops at t_r, so a call makes T plant steps in all
        assert counting.steps == T
        # a generator is read once: both phases see every impulse
        once = mpc_lqt_rollout(plant, cost, t_r, w=w,
                               perturbations=((t, v) for t, v in kicks.items()))
        xs, us = np.zeros((T + 1, m)), np.zeros((T + 1, n))
        for t in range(T + 1):
            xs[t] = w[0] if t == 0 else plant.step(t - 1, xs[t - 1], us[t - 1]) + w[t]
            if t in kicks:
                xs[t] += kicks[t]
            if t < t_r:
                us[t] = phase1.control(t, xs[:t + 1])
                continue
            if t == t_r:
                phase2 = _replan_from(system, cost, t_r, xs[:t_r + 1])
            us[t] = phase2.control(t - t_r, xs[t_r:t + 1])
        _assert_same_bits(traj, xs, us)
        _assert_same_bits(once, xs, us)
    # a step past T is named as given, before any plant step
    counting.steps = 0
    with pytest.raises(ValueError, match=rf"perturbation step {T + 1} outside \[0, {T}\]"):
        mpc_lqt_rollout(counting, cost, T // 2, w=w, perturbations=[(T + 1, np.ones(m))])
    assert counting.steps == 0


def test_swap_feedforward_during_a_plant_step_acts_from_the_next_step():
    # the law reads its feedforward at every step, so a swap on the live
    # controller made inside plant.step(s, ...) moves u_{s+1} on, not u_s
    T, m, n = 16, 4, 2
    base = double_integrator_plant(2, 0.1)
    system = linear_system_from_plant(base, T)
    law = extract_controller(solve_esls(system, _correlated_cost(T, m, n)))
    k_old, k_new, s = law.k, 2 * law.k + 0.3, 9

    class SwappingPlant(LinearPlant):
        def step(self, t, x, u):
            if t == s:
                law.swap_feedforward(k_new)
            return super().step(t, x, u)

    plant = SwappingPlant(base.A, base.B)
    w = np.full((T + 1) * m, 1e-3)
    traj = rollout(plant, law, w=w)
    assert law.k is not k_old
    law.swap_feedforward(k_old)
    _assert_same_bits(traj, *_reference_rollout(base, law, w, schedule=[(s + 1, k_new)]))
    assert traj.inputs[s + 1:].tobytes() != rollout(base, law, w=w).inputs[s + 1:].tobytes()


def test_rollout_checks_every_scheduled_feedforward_before_the_first_step():
    class CountingPlant(LinearPlant):
        steps = 0

        def step(self, t, x, u):
            self.steps += 1
            return super().step(t, x, u)

    di = double_integrator_plant(1, 0.1)
    plant = CountingPlant(di.A, di.B)
    ctrl = Controller.open_loop(np.zeros((11, 1)), 2)
    for bad in (np.ones(5), np.r_[np.ones(10), np.nan]):
        with pytest.raises(ValueError) as direct:
            ctrl.with_feedforward(bad)
        for at in (0, 7, 10):
            with pytest.raises(ValueError) as scheduled:
                rollout(plant, ctrl, feedforward_schedule=[(3, np.ones(11)), (at, bad)])
            assert str(scheduled.value) == str(direct.value)
    # a law on other state or input sizes than the plant's
    for law in (Controller.open_loop(np.zeros((11, 1)), 3),
                Controller.open_loop(np.zeros((11, 2)), 2)):
        with pytest.raises(ValueError, match="cannot run on states"):
            rollout(plant, law)
    assert plant.steps == 0
