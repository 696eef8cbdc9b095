"""Iterative synthesis for nonlinear plants and non-quadratic costs.

Each iteration linearizes the plant along a nominal trajectory, builds a
quadratic model of the objective in deviation coordinates, synthesizes
closed-loop maps for that subproblem, and rolls the resulting affine law
forward on the true plant with a backtracked feedforward to get the next
nominal.  Cross-time correlation terms survive quadratization exactly (they
are already quadratic), so the memory behavior of the synthesized controller
is preserved through the outer loop.

On a linear plant with a quadratic objective the very first subproblem is
the problem itself, so one iteration with a full step reproduces the direct
synthesis; tests pin this down.

Each subproblem is a Gauss-Newton model; once the steps are small, the
dynamics' second-order term makes it exact Newton, as in differential dynamic
programming (Jacobson & Mayne, 1970), on plants that give that term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import (
    CorrelationSpec,
    CostSpec,
    StateCostFunction,
)
from .plants import rollout
from .solver import (
    Controller,
    TimeVaryingLinearSystem,
    build_stacked,
    extract_controller,
    solve_esls,
)

ALPHAS = tuple(0.5 ** k for k in range(11))   # backtracking schedule of the feedforward scaling
STATIONARITY_FLOOR = 1e-9   # a subproblem feedforward this small proposes no move
NEWTON_SWITCH = 1e-2        # a previous step this small adds the dynamics' second-order term


class TrackingObjective:
    """Trajectory objective: per-step state costs, correlations, input effort.

    The state cost is an arbitrary twice-differentiable function per step;
    correlations and the input penalty stay quadratic (correlations couple
    timesteps, which the quadratic subproblem can represent directly).

    ``u_d`` holds absolute input targets (stacked), defaulting to zero so the
    input term is a plain effort penalty.
    """

    def __init__(self, horizon, state_dim, input_dim, state_cost,
                 correlations=(), control_weight=0.0, u_d=None):
        self.horizon = int(horizon)
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)
        if not isinstance(state_cost, StateCostFunction):
            raise TypeError("state_cost must be a StateCostFunction")
        self.state_cost = state_cost
        self.correlations = list(correlations)
        T1, n = self.horizon + 1, self.input_dim
        self.R = np.zeros((T1, n, n))
        self.R[:] = CostSpec._as_weight(control_weight, n)
        self.u_d = np.zeros(T1 * n) if u_d is None else np.asarray(u_d, float).reshape(-1).copy()
        if self.u_d.size != T1 * n:
            raise ValueError("u_d length does not match horizon and input_dim")
        self._eigh = None   # (H, lam, V) of the last eigendecomposition quadratize made

    @classmethod
    def from_costspec(cls, cost):
        """Wrap a builder-produced quadratic cost as an objective.

        Uses the viapoint and correlation provenance, so the true cost it
        reports equals the sum of the original terms (no shared-center
        approximation is involved).
        """
        state_cost = StateCostFunction.quadratic_viapoints(
            cost.horizon, cost.viapoints, cost.state_dim
        )
        obj = cls(cost.horizon, cost.state_dim, cost.input_dim, state_cost,
                  correlations=[CorrelationSpec(c.t1, c.t2, c.C, c.c, c.Q_c)
                                for c in cost.correlations],
                  u_d=cost.u_d)
        obj.R = cost.R.copy()
        return obj

    def _input_costs(self, us):
        """(T+1,) input terms (u_t - u_d,t)' R_t (u_t - u_d,t), all steps in one product."""
        T1, n = self.horizon + 1, self.input_dim
        e = np.asarray(us, dtype=float).reshape(T1, n) - self.u_d.reshape(T1, n)
        return (e[:, None, :] @ self.R @ e[:, :, None])[:, 0, 0]

    def true_cost(self, xs, us):
        """Exact objective value on a trajectory (blocks or stacked vectors)."""
        xb = np.asarray(xs, dtype=float).reshape(self.horizon + 1, self.state_dim)
        total = float(self._input_costs(us).sum())
        values = self.state_cost.values(xb)
        # in step order, as a per-step sum; a zero step value adds nothing
        for value in values[np.flatnonzero(values)].tolist():
            total += value
        for corr in self.correlations:
            total += corr.evaluate(xb[corr.t1], xb[corr.t2])
        return total

    def cumulative_cost(self, xs, us):
        """Per-step cumulative objective; cross-time terms count at their later step."""
        xb = np.asarray(xs, dtype=float).reshape(self.horizon + 1, self.state_dim)
        inc = self._input_costs(us) + self.state_cost.values(xb)
        for corr in self.correlations:
            inc[corr.t2] += corr.evaluate(xb[corr.t1], xb[corr.t2])
        return np.cumsum(inc)

    def quadratize(self, x_hat, u_hat, regularization=1e-6, hessian_floor=None, curvature=None):
        """Quadratic model of the objective in deviations around a nominal.

        Per-step state costs contribute their second-order expansion
        (C_xx = hessian + regularization, plus the (T+1, m, m) stack
        ``curvature`` when given, optionally eigenvalue-floored for
        indefinite costs), all steps in one batched eigendecomposition,
        which the objective keeps and reuses while that Hessian stack stays
        the same; the derivatives come from the state cost's batched methods;
        correlations transfer exactly with the residual
        offset r = C x_hat_{t1} + c - x_hat_{t2}; the input term becomes a
        tracking term toward u_d - u_hat.
        """
        m, T1 = self.state_dim, self.horizon + 1
        xb = np.asarray(x_hat, dtype=float).reshape(T1, m)
        ub = np.asarray(u_hat, dtype=float).reshape(T1, self.input_dim)
        cost = CostSpec(self.horizon, m, self.input_dim)
        cost.R = self.R.copy()
        cost.u_d = (self.u_d.reshape(ub.shape) - ub).reshape(-1)
        H, g = self.state_cost.hessians(xb), self.state_cost.gradients(xb)
        if curvature is not None:
            H = H + curvature
        finite = np.isfinite(H).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite state cost derivatives at t={int(np.argmin(finite))}")
        H = (H + H.transpose(0, 2, 1)) / 2 + regularization * np.eye(m)
        # a cost whose curvature does not move with the nominal (keypoint
        # quadratics) gives the same stack at every iteration; read once, so
        # a concurrent call cannot pair this H with another stack's result
        cached = self._eigh
        if cached is None or not np.array_equal(H, cached[0]):
            cached = self._eigh = (H, *np.linalg.eigh(H))
        _, lam, V = cached
        if hessian_floor is not None:
            lam = np.maximum(lam, hessian_floor)
            H = (V * lam[:, None, :]) @ V.transpose(0, 2, 1)
        # min-norm center -H^+ g, dropping eigenvalues at or below lstsq's
        # default cutoff; exact whenever the gradient lies in the range of the
        # curvature (always true for PD H, and for shifted quadratics even
        # when their weight is singular)
        cutoff = np.finfo(float).eps * m * np.max(np.abs(lam), axis=1, keepdims=True)
        inv_lam = np.divide(1.0, lam, out=np.zeros_like(lam), where=np.abs(lam) > cutoff)
        x_d = -np.einsum("tij,tj->ti", V, inv_lam * np.einsum("tji,tj->ti", V, g))
        residual = np.max(np.abs(np.einsum("tij,tj->ti", H, x_d) + g), axis=1)
        bad = residual > 1e-8 * np.maximum(1.0, np.max(np.abs(g), axis=1))
        if bad.any():
            raise ValueError(
                "curvature at t={} cannot represent the gradient; increase "
                "regularization or set hessian_floor".format(int(np.argmax(bad)))
            )
        Q = H / 2
        # steps with no state cost at all carry no Q block
        for t in np.flatnonzero(np.any(H, axis=(1, 2)) | np.any(g, axis=1)).tolist():
            cost.Q[(t, t)] = Q[t]
        cost._lin[:] = np.einsum("tij,tj->ti", Q, x_d).reshape(-1)
        cost.x_d[:] = x_d.reshape(-1)
        # each correlation, checked when the objective was built, with offset r_hat
        cost._add_correlations([CorrelationSpec._unchecked(
            corr.t1, corr.t2, corr.C, corr.C @ xb[corr.t1] + corr.c - xb[corr.t2], corr.Q_c)
            for corr in self.correlations])
        return cost


def linearize_plant(plant, x_hat, u_hat):
    """Time-varying linearization of a plant along a nominal trajectory.

    The Jacobians are evaluated at the given points, so the nominal must be
    dynamically consistent (each state the image of the previous one, as a
    :func:`slsctrl.plants.rollout` gives it): deviation coordinates of any
    other trajectory carry drift terms this system does not hold.  A plant
    that sets ``broadcasts`` is called once for the whole horizon, any
    other plant once per step.
    """
    m = plant.state_dim
    xb = np.asarray(x_hat, dtype=float).reshape(-1, m)
    ub = np.asarray(u_hat, dtype=float).reshape(-1, plant.input_dim)
    T = xb.shape[0] - 1
    if ub.shape[0] != T + 1:
        raise ValueError("nominal state and input horizons differ")
    if getattr(plant, "broadcasts", False):
        system = TimeVaryingLinearSystem(*plant.jacobians(np.arange(T + 1), xb, ub))
    else:
        system = TimeVaryingLinearSystem(
            *zip(*(plant.jacobians(t, xb[t], ub[t]) for t in range(T + 1))))
    finite = np.isfinite(system.A).all(axis=(1, 2)) & np.isfinite(system.B).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"non-finite Jacobian entries at t={int(np.argmin(finite))}")
    return system


@dataclass
class IterationState:
    """One outer-iteration record of the iterative synthesis."""

    iteration: int
    cost: float
    delta_cost: float
    alpha: float
    step_norm: float
    second_order: bool   # the step's subproblem carried the dynamics' second-order term


@dataclass
class IslsConfig:
    """Knobs of the outer loop.

    ``tolerance`` is relative: an accepted step improving the cost by less
    than tolerance * max(1, |cost|) arms the stop; the loop then terminates
    once the next subproblem's feedforward is small enough
    (``stationarity_tolerance``; None accepts any size).  A feedforward
    at or below STATIONARITY_FLOOR stops immediately: the subproblem proposes
    no move, so the nominal is already stationary.  ALPHAS is the
    backtracking schedule for the feedforward scaling; an exhausted schedule
    (no strict decrease) also terminates the loop, unconverged with reason
    "non_finite" when a trial cost was not finite, else with reason "stall",
    converged only when the feedforward meets ``stationarity_tolerance``.
    """

    tolerance: float = 1e-6
    max_iterations: int = 100
    regularization: float = 1e-6
    hessian_floor: float = None
    stationarity_tolerance: float = None


@dataclass
class IslsResult:
    """Outcome summary of :func:`isls_optimize`."""

    converged: bool
    reason: str           # "tolerance", "stationary", "stall", "non_finite" or "max_iterations"
    iterations: int
    cost: float
    stationarity: float   # max |k| of the Gauss-Newton subproblem at the final nominal
    history: list = field(default_factory=list)


def closed_loop_step(plant, controller, k_scaled, x_hat, u_hat):
    """Roll the true plant from x_hat[0] under the deviation law du = K dx + alpha k.

    ``controller`` supplies K; deviations are taken from ``x_hat``, not from
    the controller's nominal.  The law, with feedforward ``k_scaled`` around
    the nominal (x_hat, u_hat), runs through :func:`slsctrl.plants.rollout`
    without noise; returns its (T+1, m) states and (T+1, n) inputs.
    """
    traj = rollout(plant, controller._around(k_scaled, x_hat, u_hat), x0=x_hat[0])
    return traj.states, traj.inputs


def _subproblem_law(objective, system, x_hat, u_hat, cfg, curvature=None):
    """The law of the subproblem at (x_hat, u_hat) on its linearization ``system``."""
    sub = objective.quadratize(x_hat, u_hat, cfg.regularization, cfg.hessian_floor, curvature)
    return extract_controller(solve_esls(system, sub))


def _costate_curvature(plant, objective, A, x_hat, u_hat):
    """The plant's :meth:`~slsctrl.plants.Plant.costate_hessian` along a nominal, or None.

    Step t's term contracts f with lam_{t+1}, where lam_T = g_T and
    lam_t = g_t + A_t' lam_{t+1}, g_t the state cost's gradient plus each
    correlation's at t1 and t2.
    """
    g = objective.state_cost.gradients(x_hat)
    for corr in objective.correlations:
        e = corr.Q_c @ (corr.C @ x_hat[corr.t1] + corr.c - x_hat[corr.t2])
        g[corr.t1] += 2 * corr.C.T @ e
        g[corr.t2] -= 2 * e
    lam = np.zeros_like(g)   # lam[t] is lam_{t+1}; nothing follows step T
    for t in range(len(g) - 2, -1, -1):
        lam[t] = g[t + 1] + A[t + 1].T @ lam[t + 1]
    return plant.costate_hessian(x_hat, u_hat, lam)


def isls_optimize(plant, objective, x0, init_u=None, config=None):
    """Iteratively synthesize a memory-carrying controller on a nonlinear plant.

    Parameters
    ----------
    plant : Plant
    objective : TrackingObjective
    x0 : initial state of the nominal trajectory.
    init_u : optional initial input sequence ((T+1, n) or stacked); None
        starts from ``plant.initial_inputs(objective, x0)``, zeros start cold.
        The first nominal is the :func:`slsctrl.plants.rollout` of their
        open-loop law from x0.
    config : IslsConfig

    Returns
    -------
    (controller, result)
        ``controller`` is the deviation-form affine law wrapped around the
        final nominal trajectory; its feedback maps deviations from that
        nominal to input corrections, and the stored feedforward is the last
        subproblem's unscaled step (its size measures stationarity: at a
        local optimum the quadratic subproblem proposes no move).  It
        carries that subproblem's gains and inverse step Hessians, so
        :func:`slsctrl.adaptation.precompute_gain_maps` takes it with the
        subproblem ``objective.quadratize`` gives at the final nominal.

    A pass after a step with max |k| <= NEWTON_SWITCH adds the plant's
    costate Hessian to the state curvature, or is Gauss-Newton if the plant
    has none or that subproblem raises ``ValueError``.  A stopping pass with
    the term is solved once more without, and that law is returned.
    """
    cfg = config or IslsConfig()
    T, m, n = objective.horizon, objective.state_dim, objective.input_dim
    if plant.state_dim != m or plant.input_dim != n:
        raise ValueError("plant dimensions do not match the objective")
    if not np.all(np.isfinite(np.asarray(x0, dtype=float))):
        raise ValueError("x0 has non-finite entries")
    if init_u is None:
        init_u = plant.initial_inputs(objective, x0)
    init_u = np.asarray(init_u, dtype=float).reshape(T + 1, n)
    if not np.all(np.isfinite(init_u)):
        raise ValueError("init_u has non-finite entries")
    first = rollout(plant, Controller.open_loop(init_u, m), x0=x0)
    x_hat, u_hat = first.states, first.inputs
    cost_value = objective.true_cost(x_hat, u_hat)

    history = []
    pending_tol = False
    step_norm = np.inf
    while True:
        # every pass starts by solving the subproblem at the current nominal,
        # so on any exit the controller in hand belongs to that nominal
        system = build_stacked(linearize_plant(plant, x_hat, u_hat))
        ctrl = None
        if step_norm <= NEWTON_SWITCH:
            curvature = _costate_curvature(plant, objective, system.A, x_hat, u_hat)
            if curvature is not None:
                try:
                    ctrl = _subproblem_law(objective, system, x_hat, u_hat, cfg, curvature)
                except ValueError:   # no minimizer with the term: this pass is Gauss-Newton
                    pass
        second_order = ctrl is not None
        if ctrl is None:
            ctrl = _subproblem_law(objective, system, x_hat, u_hat, cfg)
        step_norm = float(np.max(np.abs(ctrl.k))) if ctrl.k.size else 0.0

        if step_norm <= STATIONARITY_FLOOR:
            reason = "stationary"
            break
        if pending_tol and (cfg.stationarity_tolerance is None
                            or step_norm <= cfg.stationarity_tolerance):
            reason = "tolerance"
            break
        if len(history) >= cfg.max_iterations:
            reason = "max_iterations"
            break

        accepted, non_finite = None, False
        for alpha in ALPHAS:
            xs, us = closed_loop_step(plant, ctrl, alpha * ctrl.k, x_hat, u_hat)
            trial = objective.true_cost(xs, us)
            if trial < cost_value:
                accepted = (alpha, xs, us, trial)
                break
            non_finite = non_finite or not np.isfinite(trial)
        if accepted is None:
            reason = "non_finite" if non_finite else "stall"
            break
        alpha, x_hat, u_hat, new_cost = accepted
        delta = cost_value - new_cost
        cost_value = new_cost
        history.append(IterationState(len(history) + 1, cost_value, delta, alpha, step_norm,
                                      second_order))
        pending_tol = delta <= cfg.tolerance * max(1.0, abs(cost_value))

    if second_order:
        # the law that ships is the one objective.quadratize describes
        ctrl = _subproblem_law(objective, system, x_hat, u_hat, cfg)
    controller = ctrl._around(ctrl.k, x_hat, u_hat)
    stationarity = float(np.max(np.abs(controller.k)))
    # a stall only shows that no scale of the step improves the cost; it
    # counts as convergence when the step itself is within the bound
    stall_ok = reason == "stall" and (cfg.stationarity_tolerance is None
                                      or stationarity <= cfg.stationarity_tolerance)
    result = IslsResult(
        converged=reason in ("tolerance", "stationary") or stall_ok,
        reason=reason,
        iterations=len(history),
        cost=cost_value,
        stationarity=stationarity,
        history=history,
    )
    return controller, result
