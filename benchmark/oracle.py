"""Independent correctness checks for the benchmark workloads.

Everything here is recomputed from the dynamics matrices (A_t, B_t) and the
raw cost terms (viapoints, correlations, input weights).  Nothing calls
``slsctrl.stacked`` or ``slsctrl.solver``, and a controller is only observed
through its behaviour in rollouts.  A change to how the package represents
or computes a controller therefore cannot make these checks pass or fail on
its own; only a change in what the controller does can.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class Quadratic:
    """Trajectory cost in stacked blocks, kept as raw block terms.

        sum_(a,b) x_a' Q[a,b] x_b - 2 sum_t q_t' x_t
            + sum_t u_t' R_t u_t - 2 r_t' u_t + const

    ``Q`` holds both blocks of every off-diagonal pair.
    """

    def __init__(self, T, m, n):
        self.T, self.m, self.n = T, m, n
        self.Q = {}
        self.q = np.zeros((T + 1, m))
        self.R = np.zeros((T + 1, n, n))
        self.r = np.zeros((T + 1, n))

    def _add(self, a, b, blk):
        self.Q[(a, b)] = self.Q.get((a, b), 0.0) + blk

    def add_viapoint(self, t, W, center):
        """(x_t - center)' W (x_t - center)."""
        self._add(t, t, W)
        self.q[t] += W @ center

    def add_correlation(self, t1, t2, C, offset, Qc):
        """(C x_t1 + offset - x_t2)' Qc (C x_t1 + offset - x_t2)."""
        self._add(t1, t1, C.T @ Qc @ C)
        self._add(t2, t2, Qc)
        self._add(t1, t2, -C.T @ Qc)
        self._add(t2, t1, -Qc @ C)
        self.q[t1] += -C.T @ Qc @ offset
        self.q[t2] += Qc @ offset

    @classmethod
    def tracking(cls, T, m, n, viapoints, correlations, R):
        """The scenario cost in absolute coordinates (targets u_d = 0)."""
        out = cls(T, m, n)
        for t, target, W in viapoints:
            out.add_viapoint(t, W, target)
        for t1, t2, C, c, Qc in correlations:
            out.add_correlation(t1, t2, C, c, Qc)
        out.R[:] = R
        return out

    @classmethod
    def expansion(cls, T, m, n, viapoints, correlations, R, x_hat, u_hat, shift):
        """Second-order model of the cost in deviations around (x_hat, u_hat).

        The cost is quadratic in the state, so the model is exact up to the
        constant except for ``shift``: the Levenberg term shift * |dx_t|^2
        the iterative solver's subproblem adds at every step.
        """
        out = cls(T, m, n)
        for t, target, W in viapoints:
            out.add_viapoint(t, W, target - x_hat[t])
        for t1, t2, C, c, Qc in correlations:
            out.add_correlation(t1, t2, C, C @ x_hat[t1] + c - x_hat[t2], Qc)
        for t in range(T + 1):
            out._add(t, t, shift * np.eye(m))
        out.R[:] = R
        out.r = -np.einsum("tij,tj->ti", out.R, u_hat)
        return out


def simulate(A, B, x_start, us, start=0):
    """States of x_{t+1} = A_t x_t + B_t u_t from block ``start`` (zero before)."""
    T = len(A) - 1
    xs = np.zeros((T + 1, A[0].shape[0]))
    xs[start] = x_start
    for t in range(start, T):
        xs[t + 1] = A[t] @ xs[t] + B[t] @ us[t]
    return xs


def optimal_inputs(A, B, quad, x_start, start=0, homogeneous=False):
    """Dense normal-equation minimizer of ``quad`` over u_start..u_T.

    States before ``start`` are zero and x_start is the state at ``start``;
    with ``homogeneous`` the linear terms are dropped (an impulse response
    is the response of the quadratic part alone).  Returns (xs, us).
    """
    T, m, n = quad.T, quad.m, quad.n
    nv = (T + 1 - start) * n
    touched = {t for pair in quad.Q for t in pair} | set(np.flatnonzero(np.any(quad.q, axis=1)))
    support = sorted(t for t in touched if t >= start)
    G, f = {}, {}
    Gt = np.zeros((m, nv))
    ft = np.asarray(x_start, float).copy()
    for t in range(start, T + 1):
        if t in touched:
            G[t], f[t] = Gt.copy(), ft.copy()
        if t < T:
            Gt = A[t] @ Gt
            Gt[:, (t - start) * n:(t - start + 1) * n] += B[t]
            ft = A[t] @ ft
    H = scipy.linalg.block_diag(*quad.R[start:])
    rhs = np.zeros(nv)
    if not homogeneous:
        rhs += quad.r[start:].reshape(-1)
    for (a, b), blk in quad.Q.items():
        if a < start or b < start:
            continue
        GaQ = G[a].T @ blk
        H += GaQ @ G[b]
        rhs -= GaQ @ f[b]
    if not homogeneous:
        for t in support:
            rhs += G[t].T @ quad.q[t]
    H = (H + H.T) / 2
    u = scipy.linalg.solve(H, rhs, assume_a="pos")
    us = np.zeros((T + 1, n))
    us[start:] = u.reshape(-1, n)
    return simulate(A, B, x_start, us, start=start), us


def _gap(actual, expected):
    """Largest entry of |actual - expected| relative to max(1e-12, max |expected|)."""
    scale = max(1e-12, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(actual - expected))) / scale


def check_plan(rollout_fn, A, B, quad, x0, rtol, atol=0.0, label="plan"):
    """The noise-free closed loop from x0 must follow the dense optimal plan.

    ``rollout_fn(w)`` returns (states, inputs) of the controller for the
    stacked disturbance w ((T+1, m); block 0 is the initial state).
    """
    T, m = quad.T, quad.m
    w = np.zeros((T + 1, m))
    w[0] = x0
    xs, us = rollout_fn(w)
    xs_ref, us_ref = optimal_inputs(A, B, quad, x0)
    errors = []
    for name, got, ref in (("inputs", us, us_ref), ("states", xs, xs_ref)):
        gap = float(np.max(np.abs(got - ref)))
        bound = rtol * float(np.max(np.abs(ref))) + atol
        if not gap <= bound:
            errors.append(f"{label}: {name} differ from the dense plan by {gap:.3e} "
                          f"(allowed {bound:.3e})")
    return errors


def check_impulses(rollout_fn, A, B, quad, x0, columns, rtol, label="impulse"):
    """Measured impulse responses must equal their dense KKT column solutions.

    Each column j = block * m + coordinate is measured as the rollout with
    w = base + e_j minus the rollout with w = base, where base carries x0.
    """
    T, m = quad.T, quad.m
    base = np.zeros((T + 1, m))
    base[0] = x0
    xs0, us0 = rollout_fn(base)
    errors = []
    for j in columns:
        blk, coord = divmod(int(j), m)
        w = base.copy()
        w[blk, coord] += 1.0
        xs1, us1 = rollout_fn(w)
        e = np.zeros(m)
        e[coord] = 1.0
        xs_ref, us_ref = optimal_inputs(A, B, quad, e, start=blk, homogeneous=True)
        for name, got, ref in (("inputs", us1 - us0, us_ref),
                               ("states", xs1 - xs0, xs_ref)):
            gap = _gap(got, ref)
            if not gap <= rtol:
                errors.append(f"{label}: column {j} (t={blk}, i={coord}) {name} "
                              f"differ from the KKT solution by {gap:.3e} relative "
                              f"(allowed {rtol:.1e})")
    return errors


class AffineLinearization:
    """Plant x_{t+1} = x_hat_{t+1} + A_t (x - x_hat_t) + B_t (u - u_hat_t).

    Duck-types the plant interface ``rollout`` needs, so a controller built
    around a nominal can be measured on its own linearization.
    """

    def __init__(self, A, B, x_hat, u_hat):
        self.A, self.B = A, B
        self.x_hat, self.u_hat = x_hat, u_hat
        self.state_dim = A[0].shape[0]
        self.input_dim = B[0].shape[1]

    def step(self, t, x, u):
        return (self.x_hat[t + 1] + self.A[t] @ (x - self.x_hat[t])
                + self.B[t] @ (u - self.u_hat[t]))


def open_loop_cost(plant, x0, us, viapoints, correlations, R):
    """True cost of the open-loop input sequence, simulated with plant.step."""
    T = us.shape[0] - 1
    xs = np.zeros((T + 1, x0.size))
    xs[0] = x0
    for t in range(T):
        xs[t + 1] = plant.step(t, xs[t], us[t])
    total = float(np.einsum("ti,ij,tj->", us, R, us))
    for t, target, W in viapoints:
        e = xs[t] - target
        total += float(e @ W @ e)
    for t1, t2, C, c, Qc in correlations:
        e = C @ xs[t1] + c - xs[t2]
        total += float(e @ Qc @ e)
    return total


def check_directional_stationarity(plant, x0, u_hat, terms, directions, h, rtol):
    """Directional derivatives of the open-loop cost vanish at u_hat.

    For each direction v, the one-dimensional Newton step -J'(v) / J''(v)
    (central differences with step h) must be below ``rtol`` times the size
    of the inputs: the nominal sits at a minimum along v.
    """
    viapoints, correlations, R = terms
    J0 = open_loop_cost(plant, x0, u_hat, viapoints, correlations, R)
    scale = max(1e-12, float(np.max(np.abs(u_hat))))
    errors = []
    for k, v in enumerate(directions):
        Jp = open_loop_cost(plant, x0, u_hat + h * v, viapoints, correlations, R)
        Jm = open_loop_cost(plant, x0, u_hat - h * v, viapoints, correlations, R)
        d1 = (Jp - Jm) / (2 * h)
        d2 = (Jp - 2 * J0 + Jm) / h**2
        if not d2 > 0:
            errors.append(f"direction {k}: cost is not convex along v (J''={d2:.3e})")
            continue
        step = abs(d1) / d2
        if not step <= rtol * scale:
            errors.append(f"direction {k}: Newton step {step:.3e} along v exceeds "
                          f"{rtol:.1e} x max|u| = {rtol * scale:.3e}")
    return errors
