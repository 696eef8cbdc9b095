"""Simulation plants, rollout machinery, and classical tracking baselines.

Two plants cover the benchmark scenarios: a point-mass double integrator
(linear) and a planar n-link arm whose state is augmented with end-effector
position, velocity, orientation and a joint-limit penalty so that task-space
objectives stay quadratic in the state while all nonlinearity lives in the
dynamics.

The baselines deliberately span the anticipation spectrum: a batch
open-loop least-squares plan, a memoryless dynamic-programming tracker
(Riccati recursion, cannot represent cross-time cost terms), and that same
tracker with a single mid-horizon re-solve that freezes realized correlated
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostSpec,
    central_difference,
    joint_limit_violation,
    joint_limit_violation_jacobian,
)
from .solver import (
    Controller,
    TimeVaryingLinearSystem,
    _checked_vector,
    _Episode,
    _run_policy,
    riccati_gains,
)

JACOBIAN_FD_STEP = 1e-6   # central-difference step of Plant.jacobians' fallback
IK_DAMPING = 1e-6         # the first-nominal IK's damping, relative to the keypoint's largest weight
IK_STEP_TOL = 1e-9        # rad; the IK stops at a step this small
IK_MAX_STEPS = 100        # or after this many steps


class Plant:
    """Discrete-time dynamics x_{t+1} = f(t, x_t, u_t).

    Subclasses set ``state_dim``, ``input_dim``, ``dt`` and implement
    :meth:`step`; :meth:`jacobians` falls back to central finite differences
    of step ``JACOBIAN_FD_STEP`` when no analytic form is provided.

    :meth:`step` takes one state (m,) and one input (n,).  A plant whose
    :meth:`jacobians` broadcasts sets ``broadcasts = True``: it then takes
    states of shape (..., m) and inputs of shape (..., n) with the same
    leading axes, and ``t`` as an integer or an integer array over those
    axes, and returns (..., m, m) and (..., m, n), each slice equal to the
    single-step call on that slice.  :func:`slsctrl.isls.linearize_plant`
    then makes one call for the whole horizon instead of one per step.

    ``is_linear = True`` means constant ``A``, ``B`` attributes with
    f(t, x, u) = A x + B u, which :func:`linear_system_from_plant` reads.

    :meth:`initial_inputs` gives the first nominal's inputs (T+1, n) of
    :func:`slsctrl.isls.isls_optimize` without ``init_u``: zeros here.
    """

    state_dim = None
    input_dim = None
    dt = None
    is_linear = False
    broadcasts = False
    name = "plant"

    def step(self, t, x, u):
        raise NotImplementedError

    def initial_inputs(self, objective, x0):
        """First nominal inputs (T+1, n) of an iterative solve from x0: zeros."""
        return np.zeros((objective.horizon + 1, self.input_dim))

    def jacobians(self, t, x, u):
        """(A, B) = (df/dx, df/du) at (t, x, u); default central differences."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return (central_difference(lambda z: self.step(t, z, u), x, JACOBIAN_FD_STEP),
                central_difference(lambda v: self.step(t, x, v), u, JACOBIAN_FD_STEP))


class LinearPlant(Plant):
    """Constant-coefficient linear plant x_{t+1} = A x + B u."""

    is_linear = True

    def __init__(self, A, B, dt=1.0, name="linear"):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.B.shape[0] != self.A.shape[0]:
            raise ValueError("B row count must match A")
        self.state_dim = self.A.shape[0]
        self.input_dim = self.B.shape[1]
        self.dt = float(dt)
        self.name = name

    def step(self, t, x, u):
        return self.A @ x + self.B @ u

    def jacobians(self, t, x, u):
        return self.A.copy(), self.B.copy()


def double_integrator_plant(dim, dt):
    """Point mass in ``dim`` spatial dimensions; state [positions, velocities].

    Explicit Euler (positions see the input only through the velocity):
    A = [[I, dt I], [0, I]], B = [[0], [dt I]].
    """
    dim = int(dim)
    eye = np.eye(dim)
    A = np.block([[eye, dt * eye], [np.zeros((dim, dim)), eye]])
    B = np.vstack([np.zeros((dim, dim)), dt * eye])
    return LinearPlant(A, B, dt=dt, name=f"double_integrator_{dim}d")


def _trig(theta):
    """Cumulative angles c (..., p) of joint angles and their [cos c; sin c] (..., 2, p).

    The one place the arm's kinematics evaluates trigonometry.
    """
    c = np.asarray(theta, dtype=float).cumsum(axis=-1)
    cs = np.empty(c.shape[:-1] + (2, c.shape[-1]))
    np.cos(c, out=cs[..., 0, :])
    np.sin(c, out=cs[..., 1, :])
    return c, cs


def _reverse_cumsum(a):
    """Sums over k >= j along the last axis."""
    return a[..., ::-1].cumsum(axis=-1)[..., ::-1]


def _wrap_float(a):
    """:func:`wrap_angle` of one Python float.

    Python's float % keeps np.mod's sign rule, so one number is wrapped as
    the array route wraps a float64, bit for bit, without ufunc calls.
    """
    r = (a + math.pi) % (2 * math.pi) - math.pi
    return math.pi if r == -math.pi else r


def wrap_angle(a):
    """Wrap to the half-open interval (-pi, pi]."""
    if np.ndim(a) == 0:
        return _wrap_float(float(a))
    r = np.mod(a + np.pi, 2 * np.pi) - np.pi
    r[r == -np.pi] = np.pi
    return r


class PlanarArmPlant(Plant):
    """Kinematic planar arm with task-space quantities embedded in the state.

    State z = [theta, theta_dot, ee_pos, ee_vel, ee_angle, limit_penalty]
    (dimension 3p + 5 for p links), input u = joint accelerations.  Joints
    integrate explicitly; the remaining coordinates are outputs recomputed
    from the new joint configuration, which keeps task-space costs quadratic
    in z.  The end-effector velocity is J(theta_{t+1}) theta_dot_t, i.e. the
    fresh Jacobian contracted with the pre-update joint velocity, so every
    output reads x_t only, not u_t.

    Every kinematic quantity reads the cumulative angles c_k = theta_1 + ...
    + theta_k and their cos and sin, evaluated once per call.  With
    r_k = l_k [-sin c_k; cos c_k] = d ee / d c_k, column j of J is the sum
    of r_k over k >= j, so J v = sum_k r_k (v_1 + ... + v_k): :meth:`step`
    forms the end-effector velocity from r and cumsum(v) without building J,
    and takes the orientation as the last cumulative angle.

    :meth:`step` runs on one state in Python floats; the Jacobians and the
    kinematic helpers broadcast over leading axes (see :class:`Plant`).
    """

    broadcasts = True

    def __init__(self, link_lengths, dt, theta_lower, theta_upper):
        self.link_lengths = np.asarray(link_lengths, dtype=float)
        if self.link_lengths.ndim != 1 or self.link_lengths.size < 1:
            raise ValueError("link_lengths must be a nonempty vector")
        if np.any(self.link_lengths <= 0):
            raise ValueError("link lengths must be positive")
        p = self.link_lengths.size
        self.n_links = p
        self.dt = float(dt)
        self.theta_lower = np.asarray(theta_lower, dtype=float)
        self.theta_upper = np.asarray(theta_upper, dtype=float)
        if self.theta_lower.shape != (p,) or self.theta_upper.shape != (p,):
            raise ValueError("joint limits must have one entry per link")
        if not np.all(self.theta_lower <= self.theta_upper):   # a NaN limit fails too
            raise ValueError("joint limits must satisfy lower <= upper")
        self.state_dim = 3 * p + 5
        self.input_dim = p
        self.name = f"planar_arm_{p}link"
        # [sin c; cos c] times this is r = d ee / d c
        self._row_scale = np.array([-self.link_lengths, self.link_lengths])
        # the constants of step, as Python floats
        self._lengths = self.link_lengths.tolist()
        self._limits = list(zip(self.theta_lower.tolist(), self.theta_upper.tolist()))

    # -- kinematics ---------------------------------------------------------

    def _jacobian(self, cs):
        # d ee / d theta_j = sum_{k >= j} r_k, r_k = d ee / d c_k from [cos c; sin c]
        return _reverse_cumsum(cs[..., ::-1, :] * self._row_scale)

    def _jacobian_rate(self, cs, v):
        V = np.cumsum(np.asarray(v, dtype=float), axis=-1)
        return _reverse_cumsum(-self.link_lengths * cs * V[..., None, :])

    def forward_kinematics(self, theta):
        """(..., 2) end-effector position of joint angles (..., p)."""
        return _trig(theta)[1] @ self.link_lengths

    def ee_jacobian(self, theta):
        """(..., 2, p) position Jacobian d ee / d theta."""
        return self._jacobian(_trig(theta)[1])

    def augment(self, theta, theta_dot=None):
        """Consistent full state for a joint configuration (for initial states)."""
        p = self.n_links
        theta = np.asarray(theta, dtype=float)
        theta_dot = np.zeros(p) if theta_dot is None else np.asarray(theta_dot, float)
        return np.concatenate([
            theta, theta_dot, self.forward_kinematics(theta),
            self.ee_jacobian(theta) @ theta_dot, [wrap_angle(float(np.sum(theta)))],
            joint_limit_violation(theta, self.theta_lower, self.theta_upper),
        ])

    def initial_inputs(self, objective, x0):
        """Inputs of a kinematic first nominal through the state cost's keypoints.

        Each keypoint's posture is a damped-least-squares IK (Nakamura &
        Hanafusa, 1986) on (ee_x, ee_y, ee_angle) under its weights, from the
        posture before and clipped to the joint limits; a minimum-jerk path
        (Flash & Hogan, 1985) joins them and holds the last.  A cost without
        ``keypoints`` gives zeros.
        """
        keypoints = getattr(objective.state_cost, "keypoints", None)
        if keypoints is None:
            return super().initial_inputs(objective, x0)
        T, p, dt = objective.horizon, self.n_links, self.dt
        task = [2 * p, 2 * p + 1, 2 * p + 4]
        x0 = np.asarray(x0, dtype=float)
        # the inputs move no posture before t = 2: theta_1 is x0's own Euler step
        knots = [(0, x0[:p]), (1, x0[:p] + dt * x0[p:2 * p])]
        for t, weight, target in keypoints:
            W = weight[np.ix_(task, task)]
            if not 1 < t <= T or not W.any():
                continue
            damping = IK_DAMPING * np.max(np.abs(W)) * np.eye(p)
            theta = knots[-1][1]
            for _ in range(IK_MAX_STEPS):
                c, cs = _trig(theta)
                J = np.vstack([self._jacobian(cs), np.ones(p)])
                e = target[task] - np.append(cs @ self.link_lengths, c[-1])
                e[2] = _wrap_float(e[2])
                step = np.linalg.solve(J.T @ W @ J + damping, J.T @ W @ e)
                last, theta = theta, np.minimum(np.maximum(theta + step, self.theta_lower),
                                                self.theta_upper)
                if np.max(np.abs(theta - last)) <= IK_STEP_TOL:
                    break
            knots.append((t, theta))
        path = np.empty((T + 1, p))
        path[knots[-1][0]:] = knots[-1][1]
        for (ta, a), (tb, b) in zip(knots, knots[1:]):
            s = np.arange(tb - ta)[:, None] / (tb - ta)
            path[ta:tb] = a + (b - a) * s**3 * (10 - 15 * s + 6 * s * s)
        u = np.zeros((T + 1, p))
        u[:T - 1] = np.diff(path, 2, axis=0) / (dt * dt)
        return u

    # -- dynamics -----------------------------------------------------------

    def step(self, t, z, u):
        """Next state of one state z (m,) under u (n,), in Python floats.

        ValueError on a z or u of another shape.
        """
        z = np.asarray(z, dtype=float)
        u = np.asarray(u, dtype=float)
        if z.shape != (self.state_dim,) or u.shape != (self.input_dim,):
            raise ValueError(f"step takes z ({self.state_dim},) and u ({self.input_dim},), "
                             f"got {z.shape} and {u.shape}")
        p, dt = self.n_links, self.dt
        z, u = z.tolist(), u.tolist()
        theta_dot = z[p:2 * p]
        theta_new = [a + dt * v for a, v in zip(z, theta_dot)]
        theta_dot_new = [v + dt * a for v, a in zip(theta_dot, u)]
        c = x = y = vx = vy = speed = 0.0
        for a, v, length in zip(theta_new, theta_dot, self._lengths):
            c += a
            speed += v
            try:
                cos_c, sin_c = math.cos(c), math.sin(c)
            except ValueError:   # an infinite angle, where np.cos gives NaN
                cos_c = sin_c = math.nan
            x += cos_c * length
            y += sin_c * length
            vx -= sin_c * length * speed
            vy += cos_c * length * speed
        # a's nearest point in [lo, hi], NaN kept, as np.minimum(np.maximum(..)) gives it
        beyond = [a - (lo if a < lo else hi if a > hi else a)
                  for a, (lo, hi) in zip(theta_new, self._limits)]
        return np.array(theta_new + theta_dot_new + [x, y, vx, vy, _wrap_float(c)]
                        + [b * b for b in beyond])

    def jacobians(self, t, z, u):
        p = self.n_links
        dt = self.dt
        z = np.asarray(z, dtype=float)
        theta_dot = z[..., p:2 * p]
        theta_new = z[..., :p] + dt * theta_dot
        lead = theta_new.shape[:-1]
        cs = _trig(theta_new)[1]
        J = self._jacobian(cs)
        D = self._jacobian_rate(cs, theta_dot)

        A = np.zeros(lead + (self.state_dim, self.state_dim))
        B = np.zeros(lead + (self.state_dim, p))
        eye = np.eye(p)
        A[..., :p, :p] = eye
        A[..., :p, p:2 * p] = dt * eye
        A[..., p:2 * p, p:2 * p] = eye
        B[..., p:2 * p, :] = dt * eye
        # end-effector position: chain through theta_new
        A[..., 2 * p:2 * p + 2, :p] = J
        A[..., 2 * p:2 * p + 2, p:2 * p] = dt * J
        # end-effector velocity J(theta_new) theta_dot
        A[..., 2 * p + 2:2 * p + 4, :p] = D
        A[..., 2 * p + 2:2 * p + 4, p:2 * p] = dt * D + J
        # absolute orientation (wrap has unit slope a.e.)
        A[..., 2 * p + 4, :p] = 1.0
        A[..., 2 * p + 4, p:2 * p] = dt
        # joint limit penalty, diagonal in theta_new
        dlim = joint_limit_violation_jacobian(theta_new, self.theta_lower, self.theta_upper)
        joints = np.arange(p)
        A[..., 2 * p + 5 + joints, joints] = dlim
        A[..., 2 * p + 5 + joints, p + joints] = dt * dlim
        return A, B


DEFAULT_JOINT_LIMIT = 2.9   # rad, either side of zero


def planar_arm_plant(link_lengths, dt, theta_lower=None, theta_upper=None):
    """Build a :class:`PlanarArmPlant`; limits default to +-DEFAULT_JOINT_LIMIT per joint."""
    p = len(link_lengths)
    if theta_lower is None:
        theta_lower = -DEFAULT_JOINT_LIMIT * np.ones(p)
    if theta_upper is None:
        theta_upper = DEFAULT_JOINT_LIMIT * np.ones(p)
    return PlanarArmPlant(link_lengths, dt, theta_lower, theta_upper)


def linear_system_from_plant(plant, horizon):
    """Time-varying system matrices of a linear plant (errors on nonlinear ones)."""
    if not plant.is_linear:
        raise ValueError(
            f"plant '{plant.name}' is nonlinear; linearize around a nominal instead"
        )
    return TimeVaryingLinearSystem.constant(plant.A, plant.B, horizon)


# -- trajectories and rollouts ------------------------------------------------


@dataclass
class Trajectory:
    """Realized states and inputs, and the stacked disturbance that drove them."""

    states: np.ndarray        # (T+1, m)
    inputs: np.ndarray        # (T+1, n)
    noise: np.ndarray         # (T+1, m) stacked disturbance (block 0 = initial state)

    @property
    def horizon(self):
        return self.states.shape[0] - 1


class NoiseModel:
    """Gaussian disturbance model for the stacked vector w = [x_0, w_0, .., w_{T-1}].

    The first block carries the initial state (mean ``mu_x0``, diagonal
    covariance ``sigma_x0``); later blocks are zero-mean process noise with
    shared per-coordinate variances ``sigma_noise``.  Only diagonal
    covariances are representable, which is all the solver ever consults:
    the deterministic synthesis does not depend on the noise scale, and the
    model exists to drive simulations.
    """

    def __init__(self, horizon, mu_x0, sigma_x0, sigma_noise):
        self.horizon = int(horizon)
        self.mu_x0 = np.asarray(mu_x0, dtype=float).copy()
        self.sigma_x0 = np.asarray(sigma_x0, dtype=float).copy()
        self.sigma_noise = np.asarray(sigma_noise, dtype=float).copy()
        m = self.mu_x0.size
        if self.sigma_x0.shape != (m,) or self.sigma_noise.shape != (m,):
            raise ValueError("variance vectors must match the state dimension")
        for name in ("mu_x0", "sigma_x0", "sigma_noise"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has non-finite entries")
        if np.any(self.sigma_x0 < 0) or np.any(self.sigma_noise < 0):
            raise ValueError("variances must be nonnegative")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")

    @property
    def state_dim(self):
        return self.mu_x0.size

    @property
    def sigma_diag(self):
        """(T+1, m) array of per-block diagonal variances."""
        out = np.tile(self.sigma_noise, (self.horizon + 1, 1))
        out[0] = self.sigma_x0
        return out

    @classmethod
    def zero(cls, horizon, state_dim):
        z = np.zeros(state_dim)
        return cls(horizon, z, z, z)

    def sample(self, rng):
        """Draw one stacked disturbance realization, shape ((T+1)*m,)."""
        sig = self.sigma_diag
        w = rng.standard_normal(sig.shape) * np.sqrt(sig)
        w[0] += self.mu_x0
        return w.ravel()


def _realize_disturbance(horizon, state_dim, noise=None, seed=None, x0=None, w=None):
    """Resolve the stacked disturbance for a rollout; explicit w wins, then x0."""
    if w is not None:
        w = np.asarray(w, dtype=float).reshape(horizon + 1, state_dim).copy()
        if x0 is not None:
            raise ValueError("pass either w or x0, not both")
        if not np.all(np.isfinite(w)):
            raise ValueError("w has non-finite entries")
        return w
    w = (np.zeros((horizon + 1, state_dim)) if noise is None   # draws nothing: all +0.0
         else noise.sample(np.random.default_rng(seed)).reshape(horizon + 1, state_dim))
    if x0 is not None:
        w[0] = np.asarray(x0, dtype=float)
        if not np.all(np.isfinite(w[0])):
            raise ValueError("x0 has non-finite entries")
    return w


def rollout(plant, controller, noise=None, seed=None, x0=None, w=None,
            perturbations=(), feedforward_schedule=None):
    """Simulate a controller on a plant: the package's one closed-loop simulator.

    Parameters
    ----------
    plant : Plant
    controller : Controller
        The law runs online through a per-episode object that keeps the
        episode's history: the rollout writes each state in place into its
        own (T+1, m) buffer, the object gathers z_t from it and reads the
        feedforward at every step.  The input at step t has the bits of
        ``controller.control(t, states[:t + 1])``.
    noise, seed : NoiseModel and rng seed; with no noise nothing is drawn (+0.0 past x0).
    x0 : optional initial-state override (replaces the drawn first block).
    w : optional pre-drawn stacked disturbance (T+1, m); enables paired
        comparisons of different controllers on identical realizations.
    perturbations : sequence of (t, impulse) added to the state at step t;
        impulse has shape (m,).
    feedforward_schedule : sequence of (t, k_new); from step t on the law is
        ``with_feedforward(k_new)`` of the one before (history retained).

    Returns a :class:`Trajectory`; identical arguments reproduce it
    bit-for-bit.  ValueError, before the first step, on a perturbation or
    schedule step that is not an integer (a ``bool`` is not one) or lies
    outside [0, T], on an impulse of another shape, and on a scheduled
    feedforward of another size or with a non-finite entry.
    """
    T = controller.horizon
    m, n = plant.state_dim, plant.input_dim
    w = _realize_disturbance(T, m, noise=noise, seed=seed, x0=x0, w=w)
    impulses = {}
    for t, vec in perturbations:
        t = _step_index("perturbation", t)
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (m,):
            raise ValueError(f"perturbation at t={t} has shape {vec.shape}, expected ({m},)")
        impulses[t] = impulses.get(t, 0) + vec
    schedule = {_step_index("feedforward_schedule", t): k for t, k in feedforward_schedule or ()}
    for what, steps in (("perturbation", impulses), ("feedforward_schedule", schedule)):
        outside = [t for t in steps if not 0 <= t <= T]
        if outside:
            raise ValueError(f"{what} step {outside[0]} outside [0, {T}]")
    for t in sorted(schedule):
        schedule[t] = _checked_vector("k", schedule[t], controller.k.size)

    xs, us = np.empty((T + 1, m)), np.empty((T + 1, n))
    episode = _Episode(controller, xs, us)
    control, step, add = episode.control, plant.step, np.add
    xs[0] = w[0]
    for t, (x, u, w_t) in enumerate(zip(xs, us, w)):
        if t:
            add(step(t - 1, x_prev, u_prev), w_t, out=x)
        if t in impulses:
            add(x, impulses[t], out=x)
        if t in schedule:
            episode.law = episode.law.with_feedforward(schedule[t])
        control(t, x, u)
        x_prev, u_prev = x, u
    return Trajectory(states=xs, inputs=us, noise=w)


def _step_index(what, t):
    """``t`` as an int; ValueError unless it is an int or NumPy integer, and not a bool."""
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise ValueError(f"{what} step {t!r} is not an integer")
    return int(t)


# -- baselines ----------------------------------------------------------------


def batch_lqt(system, cost, x0=None):
    """Open-loop least-squares plan for the deterministic tracking problem.

    Minimizes ||S_x w + S_u u - x_d||^2_Q + ||u - u_d||^2_R with
    w = [x0, 0, ...]; returns the stacked input vector.  By dynamic
    programming this is the synthesized policy run forward from x0 without
    disturbances, so with x0 = 0 it is the feedforward d_u of the
    closed-loop synthesis.
    """
    x0 = np.zeros(system.state_dim) if x0 is None else np.asarray(x0, dtype=float)
    _, us = _run_policy(system, riccati_gains(system, cost), x0)
    return us.ravel()


def dp_lqt(system, cost):
    """Memoryless tracking controller: the synthesis recursion without held states.

    Only block-diagonal Q is accepted: with cross-time blocks the optimal
    policy needs past states, which a memoryless law cannot hold, so
    off-diagonal blocks raise.  Returns a :class:`Controller` whose steps
    hold no past states, u_t = K_t x_t + k_t; the final input has no
    dynamic effect and is driven to its target (K_T = 0).
    """
    if any(i != j for (i, j) in cost.Q):
        raise ValueError(
            "dp_lqt requires block-diagonal Q; cross-time correlation terms "
            "cannot be represented by a memoryless recursion"
        )
    return riccati_gains(system, cost)


def mpc_lqt_rollout(plant, cost, recompute_time, noise=None, seed=None,
                    x0=None, w=None, perturbations=()):
    """Memoryless tracker with one scheduled re-solve at ``recompute_time``: two rollouts.

    Phase 1 runs the Riccati tracker on the diagonal projection of the cost
    (cross-time blocks dropped, derived targets kept).  At t_r every
    correlation whose earlier timestep is already realized is frozen to the
    affine image of the realized state, and phase 2 runs the re-solve of the
    remaining horizon from x_{t_r} on the rest of the one realized disturbance
    and the later impulses.  Correlations still entirely in the future stay
    projected: a memoryless plan has nothing to condition on.
    """
    T = cost.horizon
    t_r = int(recompute_time)
    if not (0 < t_r <= T):
        raise ValueError(f"recompute time {t_r} outside (0, {T}]")
    system = linear_system_from_plant(plant, T)
    w = _realize_disturbance(T, plant.state_dim, noise=noise, seed=seed, x0=x0, w=w)
    # read once per phase, so checked here: phase 2 would name a late step shifted by t_r
    perturbations = [(_step_index("perturbation", t), vec) for t, vec in perturbations]
    late = [t for t, _ in perturbations if t > T]
    if late:
        raise ValueError(f"perturbation step {late[0]} outside [0, {T}]")
    # phase 1 stops at t_r: its law cut to the steps [0, t_r] it runs
    law = dp_lqt(system, cost.diagonal_projection())
    first = rollout(plant, Controller.from_gains(law.held[:t_r + 1], law.gains[:t_r + 1],
                                                 law.k[:(t_r + 1) * law.input_dim]),
                    w=w[:t_r + 1], perturbations=[(t, v) for t, v in perturbations if t <= t_r])
    w_rest = w[t_r:].copy()
    w_rest[0] = first.states[t_r]
    later = [(t - t_r, vec) for t, vec in perturbations if t > t_r]
    rest = rollout(plant, _replan_from(system, cost, t_r, first.states[:t_r + 1]),
                   w=w_rest, perturbations=later)
    return Trajectory(states=np.concatenate([first.states[:t_r], rest.states]),
                      inputs=np.concatenate([first.inputs[:t_r], rest.inputs]), noise=w)


def _replan_from(system, cost, t_r, xs):
    """Riccati re-solve on [t_r, T] with realized correlated targets frozen."""
    T = cost.horizon
    m, n = cost.state_dim, cost.input_dim
    terms = [(t - t_r, target, weight) for t, target, weight in cost.viapoints if t >= t_r]
    for corr in cost.correlations:
        if corr.t2 < t_r:
            continue
        if corr.t1 <= t_r:
            frozen = corr.C @ xs[corr.t1] + corr.c
            terms.append((corr.t2 - t_r, frozen, corr.Q_c))
        else:
            # still unconditioned: keep the diagonal projection's pieces
            xd = cost.x_d_blocks
            terms.append((corr.t1 - t_r, xd[corr.t1], corr.C.T @ corr.Q_c @ corr.C))
            terms.append((corr.t2 - t_r, xd[corr.t2], corr.Q_c))
    # overlapping terms sum their Q blocks and linear terms; dp_lqt reads no x_d
    sub_cost = CostSpec(T - t_r, m, n)
    sub_cost.R[:] = cost.R[t_r:]
    sub_cost.u_d[:] = cost.u_d[t_r * n:]
    for t, target, weight in terms:
        sub_cost._add_viapoint(t, target, weight)
    sub_system = TimeVaryingLinearSystem(system.A[t_r:], system.B[t_r:])
    return dp_lqt(sub_system, sub_cost)
