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

from dataclasses import dataclass, field

import numpy as np

from .costs import (
    CostSpec,
    joint_limit_violation,
    joint_limit_violation_jacobian,
)
from .solver import _run_policy, riccati_gains
from .stacked import NoiseModel, TimeVaryingLinearSystem

JACOBIAN_FD_STEP = 1e-6   # central-difference step of Plant.jacobians' fallback


class Plant:
    """Discrete-time dynamics x_{t+1} = f(t, x_t, u_t).

    Subclasses set ``state_dim``, ``input_dim``, ``dt`` and implement
    :meth:`step`; :meth:`jacobians` falls back to central finite differences
    of step ``JACOBIAN_FD_STEP`` when no analytic form is provided.

    A plant whose :meth:`step` and :meth:`jacobians` broadcast sets
    ``broadcasts = True``.  Both then take states of shape (..., m) and
    inputs of shape (..., n) with the same leading axes, and ``t`` as an
    integer or an integer array over those axes.  They return next states
    (..., m) and Jacobians (..., m, m) and (..., m, n), each slice equal to
    the single-step call on that slice.  :func:`slsctrl.isls.linearize_plant`
    then makes one call of each for the whole horizon instead of one per
    step.
    """

    state_dim = None
    input_dim = None
    dt = None
    is_linear = False
    broadcasts = False
    name = "plant"

    def step(self, t, x, u):
        raise NotImplementedError

    def jacobians(self, t, x, u):
        """(A, B) = (df/dx, df/du) at (t, x, u); default central differences."""
        fd_step = JACOBIAN_FD_STEP
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        A = np.zeros((self.state_dim, self.state_dim))
        B = np.zeros((self.state_dim, self.input_dim))
        for i in range(self.state_dim):
            e = np.zeros(self.state_dim)
            e[i] = fd_step
            A[:, i] = (self.step(t, x + e, u) - self.step(t, x - e, u)) / (2 * fd_step)
        for i in range(self.input_dim):
            e = np.zeros(self.input_dim)
            e[i] = fd_step
            B[:, i] = (self.step(t, x, u + e) - self.step(t, x, u - e)) / (2 * fd_step)
        return A, B


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
        return self.A @ np.asarray(x, float) + self.B @ np.asarray(u, float)

    def jacobians(self, t, x, u):
        return self.A.copy(), self.B.copy()


def double_integrator_plant(dim, dt, exact_discretization=False):
    """Point mass in ``dim`` spatial dimensions; state [positions, velocities].

    The default discretization is the explicit-Euler form (positions see the
    input only through the velocity): A = [[I, dt I], [0, I]], B = [[0], [dt I]].
    ``exact_discretization=True`` switches B's position rows to dt^2/2 I
    (zero-order-hold on the acceleration).
    """
    dim = int(dim)
    eye = np.eye(dim)
    A = np.block([[eye, dt * eye], [np.zeros((dim, dim)), eye]])
    top = (dt**2 / 2) * eye if exact_discretization else np.zeros((dim, dim))
    B = np.vstack([top, dt * eye])
    return LinearPlant(A, B, dt=dt, name=f"double_integrator_{dim}d")


def _cumulative_angles(theta):
    return np.asarray(theta, dtype=float).cumsum(axis=-1)


def _reverse_cumsum(a):
    """Sums over k >= j along the last axis."""
    return a[..., ::-1].cumsum(axis=-1)[..., ::-1]


def wrap_angle(a):
    """Wrap to the half-open interval (-pi, pi]."""
    r = np.mod(a + np.pi, 2 * np.pi) - np.pi
    if np.ndim(r) == 0:
        return float(np.pi) if r == -np.pi else float(r)
    r = np.asarray(r)
    r[r == -np.pi] = np.pi
    return r


class PlanarArmPlant(Plant):
    """Kinematic planar arm with task-space quantities embedded in the state.

    State z = [theta, theta_dot, ee_pos, ee_vel, ee_angle, limit_penalty]
    (dimension 3p + 5 for p links), input u = joint accelerations.  Joints
    integrate explicitly; the remaining coordinates are outputs recomputed
    from the new joint configuration, which keeps task-space costs quadratic
    in z.  The end-effector velocity is J(theta_{t+1}) theta_dot_t, i.e. the
    fresh Jacobian contracted with the pre-update joint velocity;
    ``consistent_velocity=True`` uses theta_dot_{t+1} instead.

    The dynamics, their Jacobians and the kinematic helpers broadcast over
    leading axes (see :class:`Plant`).
    """

    broadcasts = True

    def __init__(self, link_lengths, dt, theta_lower, theta_upper,
                 consistent_velocity=False):
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
        if np.any(self.theta_lower > self.theta_upper):
            raise ValueError("lower joint limit exceeds upper limit")
        self.consistent_velocity = bool(consistent_velocity)
        self.state_dim = 3 * p + 5
        self.input_dim = p
        self.name = f"planar_arm_{p}link"

    # -- kinematics ---------------------------------------------------------

    def forward_kinematics(self, theta):
        """(..., 2) end-effector position of joint angles (..., p)."""
        c = _cumulative_angles(theta)
        out = np.empty(c.shape[:-1] + (2,))
        out[..., 0] = np.cos(c) @ self.link_lengths
        out[..., 1] = np.sin(c) @ self.link_lengths
        return out

    def ee_jacobian(self, theta):
        """(..., 2, p) position Jacobian d ee / d theta."""
        c = _cumulative_angles(theta)
        rows = np.empty(c.shape[:-1] + (2, self.n_links))
        rows[..., 0, :] = -self.link_lengths * np.sin(c)
        rows[..., 1, :] = self.link_lengths * np.cos(c)
        # d ee / d theta_j = sum_{k >= j} d ee / d c_k
        return _reverse_cumsum(rows)

    def ee_jacobian_rate(self, theta, v):
        """(..., 2, p) derivative of J(theta) v with respect to theta, v held fixed."""
        c = _cumulative_angles(theta)
        V = np.cumsum(np.asarray(v, dtype=float), axis=-1)
        rows = np.empty(np.broadcast_shapes(c.shape, V.shape)[:-1] + (2, self.n_links))
        rows[..., 0, :] = -self.link_lengths * np.cos(c) * V
        rows[..., 1, :] = -self.link_lengths * np.sin(c) * V
        return _reverse_cumsum(rows)

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

    # -- dynamics -----------------------------------------------------------

    def _advance(self, z, u):
        """Joint update shared by :meth:`step` and :meth:`jacobians`."""
        p = self.n_links
        z = np.asarray(z, dtype=float)
        u = np.asarray(u, dtype=float)
        theta, theta_dot = z[..., :p], z[..., p:2 * p]
        theta_new = theta + self.dt * theta_dot
        theta_dot_new = theta_dot + self.dt * u
        vel_source = theta_dot_new if self.consistent_velocity else theta_dot
        return theta_dot_new.shape[:-1], theta_new, theta_dot_new, vel_source

    def step(self, t, z, u):
        p = self.n_links
        lead, theta_new, theta_dot_new, vel_source = self._advance(z, u)
        out = np.empty(lead + (self.state_dim,))
        out[..., :p] = theta_new
        out[..., p:2 * p] = theta_dot_new
        out[..., 2 * p:2 * p + 2] = self.forward_kinematics(theta_new)
        out[..., 2 * p + 2:2 * p + 4] = (self.ee_jacobian(theta_new)
                                         @ vel_source[..., None])[..., 0]
        out[..., 2 * p + 4] = wrap_angle(theta_new.sum(axis=-1))
        out[..., 2 * p + 5:] = joint_limit_violation(theta_new, self.theta_lower,
                                                     self.theta_upper)
        return out

    def jacobians(self, t, z, u):
        p = self.n_links
        dt = self.dt
        lead, theta_new, _, vel_source = self._advance(z, u)
        J = self.ee_jacobian(theta_new)
        D = self.ee_jacobian_rate(theta_new, vel_source)

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
        # end-effector velocity J(theta_new) vel_source
        A[..., 2 * p + 2:2 * p + 4, :p] = D
        A[..., 2 * p + 2:2 * p + 4, p:2 * p] = dt * D + J
        if self.consistent_velocity:
            B[..., 2 * p + 2:2 * p + 4, :] = dt * J
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


def planar_arm_plant(link_lengths, dt, theta_lower=None, theta_upper=None,
                     consistent_velocity=False):
    """Build a :class:`PlanarArmPlant`; limits default to +-DEFAULT_JOINT_LIMIT per joint."""
    p = len(link_lengths)
    if theta_lower is None:
        theta_lower = -DEFAULT_JOINT_LIMIT * np.ones(p)
    if theta_upper is None:
        theta_upper = DEFAULT_JOINT_LIMIT * np.ones(p)
    return PlanarArmPlant(link_lengths, dt, theta_lower, theta_upper,
                          consistent_velocity=consistent_velocity)


def linear_system_from_plant(plant, horizon):
    """Time-varying system matrices of a linear plant (errors on nonlinear ones)."""
    if not plant.is_linear:
        raise ValueError(
            f"plant '{plant.name}' is nonlinear; linearize around a nominal instead"
        )
    zeros_x, zeros_u = np.zeros(plant.state_dim), np.zeros(plant.input_dim)
    return TimeVaryingLinearSystem(*zip(*(plant.jacobians(t, zeros_x, zeros_u)
                                          for t in range(horizon + 1))))


# -- trajectories and rollouts ------------------------------------------------


@dataclass
class Trajectory:
    """Realized states and inputs plus everything needed to replay them."""

    states: np.ndarray        # (T+1, m)
    inputs: np.ndarray        # (T+1, n)
    noise: np.ndarray         # (T+1, m) stacked disturbance (block 0 = initial state)
    seed: object = None
    perturbations: tuple = ()
    metadata: dict = field(default_factory=dict)

    @property
    def horizon(self):
        return self.states.shape[0] - 1

    @property
    def stacked_states(self):
        return self.states.reshape(-1)

    @property
    def stacked_inputs(self):
        return self.inputs.reshape(-1)


class OpenLoopController:
    """Fixed input sequence wrapped in the controller interface."""

    def __init__(self, inputs, state_dim):
        self.inputs = np.asarray(inputs, dtype=float)
        if self.inputs.ndim != 2 or not np.isfinite(self.inputs).all():
            raise ValueError("inputs must be a finite (T+1, n) array")
        self.state_dim = state_dim
        self.input_dim = self.inputs.shape[1]

    @property
    def horizon(self):
        return self.inputs.shape[0] - 1

    def control(self, t, x_history):
        return self.inputs[t].copy()


def _realize_disturbance(horizon, state_dim, noise=None, seed=None, x0=None, w=None):
    """Resolve the stacked disturbance for a rollout; explicit w wins, then x0."""
    if w is not None:
        w = np.asarray(w, dtype=float).reshape(horizon + 1, state_dim).copy()
        if x0 is not None:
            raise ValueError("pass either w or x0, not both")
        if not np.all(np.isfinite(w)):
            raise ValueError("w has non-finite entries")
        return w
    if noise is None:
        noise = NoiseModel.zero(horizon, state_dim)
    rng = np.random.default_rng(seed)
    w = noise.sample(rng).reshape(horizon + 1, state_dim)
    if x0 is not None:
        w[0] = np.asarray(x0, dtype=float)
        if not np.all(np.isfinite(w[0])):
            raise ValueError("x0 has non-finite entries")
    return w


def rollout(plant, controller, noise=None, seed=None, x0=None, w=None,
            perturbations=(), feedforward_schedule=None, metadata=None):
    """Simulate a controller on a plant.

    Parameters
    ----------
    plant : Plant
    controller : object with ``control(t, x_history)`` and ``horizon``
        Closed-loop laws see the full state history (flattened); memoryless
        ones just read the last block.
    noise, seed : NoiseModel and rng seed used to draw the disturbance.
    x0 : optional initial-state override (replaces the drawn first block).
    w : optional pre-drawn stacked disturbance (T+1, m); enables paired
        comparisons of different controllers on identical realizations.
    perturbations : sequence of (t, impulse) added to the state at step t.
    feedforward_schedule : sequence of (t, k_new); at step t the remaining
        rollout continues with the swapped feedforward (history retained).

    Returns a :class:`Trajectory`; identical arguments reproduce it
    bit-for-bit.
    """
    T = controller.horizon
    m, n = plant.state_dim, plant.input_dim
    w = _realize_disturbance(T, m, noise=noise, seed=seed, x0=x0, w=w)
    impulses = {}
    for t, vec in perturbations:
        impulses[int(t)] = impulses.get(int(t), 0) + np.asarray(vec, dtype=float)
    schedule = dict() if feedforward_schedule is None else {
        int(t): np.asarray(k, dtype=float) for t, k in feedforward_schedule
    }

    active = controller
    xs = np.zeros((T + 1, m))
    us = np.zeros((T + 1, n))
    for t in range(T + 1):
        if t == 0:
            x_t = w[0].copy()
        else:
            x_t = plant.step(t - 1, xs[t - 1], us[t - 1]) + w[t]
        if t in impulses:
            x_t = x_t + impulses[t]
        xs[t] = x_t
        if t in schedule:
            active = active.with_feedforward(schedule[t])
        us[t] = active.control(t, xs[: t + 1])
    return Trajectory(
        states=xs, inputs=us, noise=w, seed=seed,
        perturbations=tuple((int(t), np.asarray(v, float).copy()) for t, v in perturbations),
        metadata={} if metadata is None else dict(metadata),
    )


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


def _accumulated_diagonal_cost(horizon, state_dim, input_dim, r_blocks, terms, u_d=None):
    """Diagonal CostSpec from possibly-overlapping (t, target, weight) terms.

    Unlike the viapoint builder this accumulates conflicting targets into a
    consistent weighted center per timestep, which is exactly what a
    re-planning baseline needs when a frozen correlated target lands on a
    timestep that already carries one.
    """
    cost = CostSpec(horizon, state_dim, input_dim)
    cost.R = np.asarray(r_blocks, dtype=float).copy()
    if u_d is not None:
        cost.u_d = np.asarray(u_d, dtype=float).copy()
    m = state_dim
    for t, target, weight in terms:
        w = CostSpec._as_weight(weight, m)
        cost._add_q(t, t, w)
        cost._lin[t * m:(t + 1) * m] += w @ np.asarray(target, dtype=float)
    for t in range(horizon + 1):
        if np.any(cost.q_block(t, t)):
            cost._refresh_targets(t)
    return cost


def mpc_lqt_rollout(plant, cost, recompute_time, noise=None, seed=None,
                    x0=None, w=None, perturbations=(), metadata=None):
    """Memoryless tracker with one scheduled re-solve at ``recompute_time``.

    Phase 1 runs the Riccati tracker on the diagonal projection of the cost
    (cross-time blocks dropped, derived targets kept).  At t_r every
    correlation whose earlier timestep is already realized is frozen to the
    affine image of the realized state, and the remaining horizon is
    re-solved from the realized state.  Correlations still entirely in the
    future stay projected: a memoryless plan has nothing to condition on.
    """
    T = cost.horizon
    t_r = int(recompute_time)
    if not (0 < t_r <= T):
        raise ValueError(f"recompute time {t_r} outside (0, {T}]")
    system = linear_system_from_plant(plant, T)
    phase1 = dp_lqt(system, cost.diagonal_projection())
    meta = {"recompute_time": t_r}
    if metadata:
        meta.update(metadata)
    return rollout(plant, _ReplanningController(system, cost, t_r, phase1), noise=noise,
                   seed=seed, x0=x0, w=w, perturbations=perturbations, metadata=meta)


class _ReplanningController:
    """The phase-1 tracker before ``t_r``, then the re-solve made at ``t_r``."""

    def __init__(self, system, cost, t_r, phase1):
        self.system, self.cost, self.t_r = system, cost, t_r
        self.phase1, self.phase2 = phase1, None
        self.horizon = cost.horizon

    def control(self, t, x_history):
        if t < self.t_r:
            return self.phase1.control(t, x_history)
        xs = np.asarray(x_history, dtype=float).reshape(t + 1, -1)
        if t == self.t_r:
            self.phase2 = _replan_from(self.system, self.cost, t, xs)
        return self.phase2.control(t - self.t_r, xs[self.t_r:])


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
    sub_cost = _accumulated_diagonal_cost(
        T - t_r, m, n, cost.R[t_r:],
        terms, u_d=cost.u_d_blocks[t_r:].reshape(-1),
    )
    sub_system = TimeVaryingLinearSystem(system.A[t_r:], system.B[t_r:])
    return dp_lqt(sub_system, sub_cost)
