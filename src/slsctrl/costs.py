"""Quadratic trajectory costs with cross-time coupling.

Costs are kept in the stacked form (x - x_d)' Q (x - x_d) + (u - u_d)' R (u - u_d)
where Q is block sparse: viapoint terms populate diagonal blocks and
cross-time correlation terms populate off-diagonal blocks.  A correlation
says "state at t2 should equal an affine image of the state at t1"; encoding
it in Q is what lets the synthesized controller remember the past instead of
tracking a fixed target.

Because several terms with different centers can touch the same timestep,
the exact linear part of the accumulated quadratic is tracked separately and
x_d is re-derived per coupled component as a consistent center (minimum-norm
solution of Q x_d = lin, which always exists for sums of PSD terms).  The
assembled quadratic then matches the sum of the underlying terms up to an
additive constant, which no minimizer or solver path ever sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_symmetric(w):
    """``np.allclose(w, w.T, atol=1e-12)``, answered by an exact test when w is symmetric."""
    return bool((w == w.T).all()) or np.allclose(w, w.T, atol=1e-12)


@dataclass
class CorrelationSpec:
    """Cross-time cost term (C x_{t1} + c - x_{t2})' Q_c (C x_{t1} + c - x_{t2})."""

    t1: int
    t2: int
    C: np.ndarray
    c: np.ndarray
    Q_c: np.ndarray

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.Q_c = np.asarray(self.Q_c, dtype=float)
        if self.t1 >= self.t2:
            raise ValueError(f"correlation requires t1 < t2, got ({self.t1}, {self.t2})")
        m = self.C.shape[0]
        if self.C.shape != (m, m) or self.Q_c.shape != (m, m) or self.c.shape != (m,):
            raise ValueError("C, Q_c must be (m, m) and c must be (m,)")
        if not is_symmetric(self.Q_c):
            raise ValueError("Q_c must be symmetric")

    @classmethod
    def _unchecked(cls, t1, t2, C, c, Q_c):
        """A spec of float arrays whose checks the caller has made; none is run again."""
        out = object.__new__(cls)
        out.t1, out.t2, out.C, out.c, out.Q_c = t1, t2, C, c, Q_c
        return out

    def copy(self):
        """Copy with arrays of its own, in their memory order; no field is checked again."""
        return self._unchecked(self.t1, self.t2,
                               *(a.copy(order="K") for a in (self.C, self.c, self.Q_c)))

    def evaluate(self, x_t1, x_t2):
        """Direct evaluation of the correlation cost on two state blocks."""
        e = self.C @ np.asarray(x_t1, float) + self.c - np.asarray(x_t2, float)
        return float(e @ self.Q_c @ e)


class CostSpec:
    """Block-sparse stacked quadratic cost over a horizon.

    Attributes
    ----------
    horizon : int
        T; vectors stack T+1 blocks.
    Q : dict
        Mapping (i, j) -> (m, m) block.  Symmetric pairs are both stored.
    R : ndarray, shape (T+1, n, n)
        Per-step input weight blocks, each symmetric positive definite.
    x_d, u_d : ndarray
        Stacked desired state / input, shapes ((T+1)m,) and ((T+1)n,).
    """

    def __init__(self, horizon, state_dim, input_dim, control_weight=None):
        self.horizon = int(horizon)
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        T1, m, n = self.horizon + 1, self.state_dim, self.input_dim
        self.Q = {}
        self.R = np.zeros((T1, n, n))
        if control_weight is not None:
            self.R[:] = self._as_weight(control_weight, n)
        self.x_d = np.zeros(T1 * m)
        self.u_d = np.zeros(T1 * n)
        self._lin = np.zeros(T1 * m)
        self.viapoints = []       # (t, target, weight) provenance
        self.correlations = []    # CorrelationSpec provenance

    @staticmethod
    def _as_weight(w, dim):
        w = np.asarray(w, dtype=float)
        if w.ndim == 0:
            w = np.eye(dim) * float(w)
        elif w.ndim == 1:
            if w.size != dim:
                raise ValueError(f"diagonal weight length {w.size} != {dim}")
            w = np.diag(w)
        elif w.shape != (dim, dim):
            raise ValueError(f"weight shape {w.shape} incompatible with dim {dim}")
        if not is_symmetric(w):
            raise ValueError("weight matrix must be symmetric")
        return w

    # -- block views ------------------------------------------------------

    @property
    def x_d_blocks(self):
        return self.x_d.reshape(self.horizon + 1, self.state_dim)

    @property
    def u_d_blocks(self):
        return self.u_d.reshape(self.horizon + 1, self.input_dim)

    def q_block(self, i, j):
        m = self.state_dim
        return self.Q.get((i, j), np.zeros((m, m)))

    def _add_q(self, i, j, block):
        if not (0 <= i <= self.horizon and 0 <= j <= self.horizon):
            raise ValueError(f"timestep pair ({i}, {j}) outside horizon {self.horizon}")
        cur = self.Q.get((i, j))
        self.Q[(i, j)] = block.copy() if cur is None else cur + block

    # -- assembly / products ----------------------------------------------

    def q_matvec(self, x):
        """Q @ x using only the stored blocks; x is a vector or ((T+1)m, c) columns."""
        m = self.state_dim
        x = np.asarray(x, dtype=float)
        xb = x.reshape(self.horizon + 1, m, *x.shape[1:])
        out = np.zeros_like(xb)
        for (i, j), blk in self.Q.items():
            out[i] += blk @ xb[j]
        return out.reshape(x.shape)

    @property
    def linear_term(self):
        """Exact accumulated linear vector b with the cost = x'Qx - 2 b'x + const."""
        return self._lin.copy()

    # -- construction ------------------------------------------------------

    def copy(self):
        out = CostSpec(self.horizon, self.state_dim, self.input_dim)
        out.Q = {k: v.copy() for k, v in self.Q.items()}
        out.R = self.R.copy()
        out.x_d = self.x_d.copy()
        out.u_d = self.u_d.copy()
        out._lin = self._lin.copy()
        out.viapoints = [(t, tgt.copy(), w.copy()) for t, tgt, w in self.viapoints]
        out.correlations = [c.copy() for c in self.correlations]
        return out

    def _coupling_component(self, t_seed):
        """Timesteps reachable from t_seed through off-diagonal Q blocks."""
        adj = {}
        for (i, j) in self.Q:
            if i != j:
                adj.setdefault(i, set()).add(j)
        comp, frontier = {t_seed}, [t_seed]
        while frontier:
            t = frontier.pop()
            for s in adj.get(t, ()):
                if s not in comp:
                    comp.add(s)
                    frontier.append(s)
        return sorted(comp)

    @classmethod
    def _assemble(cls, horizon, state_dim, control_weight, viapoints, correlations):
        """Cost of checked terms, none checked again: the (n, n) weight of every
        step, (t, target (m,), weight (m, m)) viapoints and correlation specs."""
        cost = cls(horizon, state_dim, control_weight.shape[0])
        cost.R[:] = control_weight
        for t, target, w in viapoints:
            cost._add_viapoint(t, target, w)
        cost._add_correlations([corr.copy() for corr in correlations])
        return cost

    def _add_viapoint(self, t, target, w):
        """Add the checked term (x_t - target)' w (x_t - target) in place and record it."""
        m = self.state_dim
        self._add_q(t, t, w)
        self._lin[t * m:(t + 1) * m] += w @ target
        self.x_d[t * m:(t + 1) * m] = target
        self.viapoints.append((t, target.copy(), w))

    def _add_correlations(self, corrs):
        """Fold correlations in place, then re-derive x_d once per coupled component.

        x_d on a component depends only on its final Q and linear blocks, so
        one refresh after every fold gives the x_d of a refresh after each.
        """
        for corr in corrs:
            self._fold_correlation(corr)
        refreshed = set()
        for corr in corrs:
            if corr.t1 not in refreshed:
                refreshed.update(self._refresh_targets(corr.t1))

    def _fold_correlation(self, corr):
        """Add a correlation's Q blocks and linear terms in place and record it.

        Expanding (C x_{t1} + c - x_{t2})' Q_c (...) in the shifted variable
        x_{t2} - c contributes C'Q_cC at (t1,t1), Q_c at (t2,t2), -C'Q_c at
        (t1,t2) plus its transpose, and linear parts -C'Q_c c / Q_c c at
        t1/t2.  x_d is left as it was: :meth:`_add_correlations` refreshes it.
        """
        C, c, Qc, m = corr.C, corr.c, corr.Q_c, self.state_dim
        CtQ, neg_CtQ = C.T @ Qc, -C.T @ Qc
        self._add_q(corr.t1, corr.t1, CtQ @ C)
        self._add_q(corr.t2, corr.t2, Qc)
        self._add_q(corr.t1, corr.t2, neg_CtQ)
        self._add_q(corr.t2, corr.t1, -Qc @ C)
        self._lin[corr.t1 * m:(corr.t1 + 1) * m] += neg_CtQ @ c
        self._lin[corr.t2 * m:(corr.t2 + 1) * m] += Qc @ c
        self.correlations.append(corr)

    def _refresh_targets(self, t_seed):
        """Re-derive x_d on the coupled component so that Q x_d = lin exactly.

        Returns the component's timesteps.
        """
        comp = self._coupling_component(t_seed)
        m = self.state_dim
        k = len(comp)
        pos = {t: a for a, t in enumerate(comp)}
        Qc = np.zeros((k * m, k * m))
        for (i, j), blk in self.Q.items():
            if i in pos and j in pos:
                Qc[pos[i] * m:(pos[i] + 1) * m, pos[j] * m:(pos[j] + 1) * m] = blk
        b = np.concatenate([self._lin[t * m:(t + 1) * m] for t in comp])
        sol, *_ = np.linalg.lstsq(Qc, b, rcond=None)
        for t in comp:
            self.x_d[t * m:(t + 1) * m] = sol[pos[t] * m:(pos[t] + 1) * m]
        return comp

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, xs, us):
        return evaluate_trajectory_cost(self, xs, us)

    def cumulative_cost(self, xs, us):
        """Per-step cumulative cost; entry t counts every term fully contained in [0, t].

        Cross-time terms are attributed to their later timestep, so the last
        entry equals :func:`evaluate_trajectory_cost` exactly.
        """
        m, n = self.state_dim, self.input_dim
        xe = np.asarray(xs, float).reshape(self.horizon + 1, m) - self.x_d_blocks
        ue = np.asarray(us, float).reshape(self.horizon + 1, n) - self.u_d_blocks
        inc = np.zeros(self.horizon + 1)
        for (i, j), blk in self.Q.items():
            inc[max(i, j)] += float(xe[i] @ blk @ xe[j])
        for t in range(self.horizon + 1):
            inc[t] += float(ue[t] @ self.R[t] @ ue[t])
        return np.cumsum(inc)

    def diagonal_projection(self):
        """Copy with off-diagonal Q blocks dropped; x_d keeps the derived targets."""
        out = self.copy()
        out.Q = {k: v for k, v in out.Q.items() if k[0] == k[1]}
        out.correlations = []
        out._lin = out.q_matvec(out.x_d)
        return out


def build_viapoint_cost(horizon, viapoints, control_weight, state_dim=None, input_dim=1):
    """Assemble a sparse tracking cost from keypoint terms.

    Parameters
    ----------
    horizon : int
        Number of steps T; stacked vectors hold T+1 blocks.
    viapoints : sequence of (t, target, weight)
        ``weight`` may be a scalar, a diagonal vector, or a full symmetric
        PSD matrix.  Repeated timesteps are allowed only with identical
        targets (their weights accumulate); conflicting targets are an error.
    control_weight : scalar, vector or matrix
        Per-step input weight R_t (shared across steps), must be PD.
    state_dim : int, optional
        Required when ``viapoints`` is empty.
    input_dim : int
        Input block size, used to expand scalar/diagonal control weights.
    """
    viapoints = list(viapoints)
    if state_dim is None:
        if not viapoints:
            raise ValueError("state_dim required when no viapoints are given")
        state_dim = np.asarray(viapoints[0][1], dtype=float).size
    cw = np.asarray(control_weight, dtype=float)
    if cw.ndim == 2:
        input_dim = cw.shape[0]
    elif cw.ndim == 1:
        input_dim = cw.size
    control_weight = CostSpec._as_weight(control_weight, input_dim)
    check_control_weight(control_weight)
    cost = CostSpec(horizon, state_dim, input_dim)
    cost.R[:] = control_weight

    seen_targets = {}
    for t, target, weight in viapoints:
        t = int(t)
        if not (0 <= t <= horizon):
            raise ValueError(f"viapoint timestep {t} outside horizon [0, {horizon}]")
        target = np.asarray(target, dtype=float)
        if target.shape != (state_dim,):
            raise ValueError(f"viapoint target at t={t} has shape {target.shape}, "
                             f"expected ({state_dim},)")
        w = CostSpec._as_weight(weight, state_dim)
        if t in seen_targets and not np.array_equal(seen_targets[t], target):
            raise ValueError(f"conflicting targets for duplicate viapoint at t={t}")
        seen_targets[t] = target
        cost._add_viapoint(t, target, w)
    return cost


def check_control_weight(control_weight):
    """Raise ValueError unless the (n, n) weight, which every step shares, is PD."""
    try:
        np.linalg.cholesky(control_weight)
    except np.linalg.LinAlgError:
        raise ValueError("control weight is not positive definite") from None


def add_correlation(cost, corr):
    """Return a new CostSpec with a cross-time correlation term folded in.

    See :meth:`CostSpec._fold_correlation` for the blocks it adds.  x_d over
    the touched coupled component is re-derived so the assembled quadratic
    stays consistent (exactly when the timesteps were fresh, up to an
    additive constant when earlier targets overlap).
    """
    if corr.C.shape[0] != cost.state_dim:
        raise ValueError("correlation dimension does not match the cost's state_dim")
    if corr.t2 > cost.horizon:
        raise ValueError(f"correlation t2={corr.t2} outside horizon {cost.horizon}")
    out = cost.copy()
    out._add_correlations([corr.copy()])
    return out


def evaluate_trajectory_cost(cost, xs, us):
    """(x - x_d)' Q (x - x_d) + (u - u_d)' R (u - u_d) on stacked trajectories."""
    m, n = cost.state_dim, cost.input_dim
    xe = np.asarray(xs, float).reshape(-1) - cost.x_d
    ue = np.asarray(us, float).reshape(-1) - cost.u_d
    if xe.size != (cost.horizon + 1) * m or ue.size != (cost.horizon + 1) * n:
        raise ValueError("trajectory length does not match the cost horizon")
    total = float(xe @ cost.q_matvec(xe))
    ueb = ue.reshape(-1, n)
    for t in range(cost.horizon + 1):
        total += float(ueb[t] @ cost.R[t] @ ueb[t])
    return total


# -- pointwise cost functions for the iterative solver -----------------------


def central_difference(f, x, step):
    """Jacobian (..., d) of f at the vector x (d,): column i is
    (f(x + step e_i) - f(x - step e_i)) / (2 step)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        cols.append(np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float))
    return np.stack(cols, axis=-1) / (2 * step)


STATE_COST_FD_STEP = 1e-5   # central-difference step of StateCostFunction's fallbacks


class StateCostFunction:
    """Per-step state cost c(t, x) with first and second derivatives.

    Derivatives may be supplied analytically; missing ones fall back to
    :func:`central_difference` of step ``STATE_COST_FD_STEP``: the gradient
    of the value, the Hessian of the gradient.  A Hessian of the differenced
    gradient takes a step of 1e-4.

    :meth:`values`, :meth:`gradients` and :meth:`hessians` evaluate a whole
    state stack xs (N, m), step t at xs[t], by one per-step call at each
    step :meth:`_steps` names and zeros at the others.  Here that is every
    step; the cost :meth:`quadratic_viapoints` gives names only its keypoint
    steps, where the per-step methods are zero anyway.
    """

    def __init__(self, value, gradient=None, hessian=None):
        self._value = value
        self._gradient = gradient
        self._hessian = hessian

    def value(self, t, x):
        return float(self._value(t, np.asarray(x, dtype=float)))

    def gradient(self, t, x):
        if self._gradient is not None:
            return np.asarray(self._gradient(t, np.asarray(x, dtype=float)), dtype=float)
        return central_difference(lambda z: self._value(t, z), x, STATE_COST_FD_STEP)

    def hessian(self, t, x):
        if self._hessian is not None:
            return np.asarray(self._hessian(t, np.asarray(x, dtype=float)), dtype=float)
        # a differenced gradient carries rounding that a narrow step would amplify
        step = STATE_COST_FD_STEP if self._gradient is not None else 1e-4
        H = central_difference(lambda z: self.gradient(t, z), x, step)
        return (H + H.T) / 2

    def _steps(self, N):
        """The steps 0 <= t < N at which the cost can be nonzero: all of them here."""
        return range(N)

    def values(self, xs):
        """(N,) values c(t, xs[t]) of a state stack xs (N, m), zero off :meth:`_steps`."""
        out = np.zeros(len(xs))
        for t in self._steps(len(xs)):
            out[t] = self.value(t, xs[t])
        return out

    def gradients(self, xs):
        """(N, m) gradients at the steps of a state stack xs (N, m), zero off :meth:`_steps`."""
        out = np.zeros(np.shape(xs))
        for t in self._steps(len(xs)):
            out[t] = self.gradient(t, xs[t])
        return out

    def hessians(self, xs):
        """(N, m, m) Hessians at the steps of a state stack xs (N, m), zero off :meth:`_steps`."""
        N, m = np.shape(xs)
        out = np.zeros((N, m, m))
        for t in self._steps(N):
            out[t] = self.hessian(t, xs[t])
        return out

    @classmethod
    def quadratic_viapoints(cls, horizon, viapoints, state_dim):
        """Sum of keypoint quadratics (x_t - g_t)' W_t (x_t - g_t) as a step cost.

        Its batched methods evaluate only the keypoint steps of a stack.
        """
        table = {}
        for t, target, weight in viapoints:
            w = CostSpec._as_weight(weight, state_dim)
            g = np.asarray(target, dtype=float)
            if t in table:
                w0, g0 = table[t]
                if not np.array_equal(g0, g):
                    raise ValueError(f"conflicting targets for duplicate viapoint at t={t}")
                table[t] = (w0 + w, g)
            else:
                table[t] = (w, g)

        def value(t, x):
            if t not in table:
                return 0.0
            w, g = table[t]
            e = x - g
            return float(e @ w @ e)

        def gradient(t, x):
            if t not in table:
                return np.zeros(state_dim)
            w, g = table[t]
            return 2.0 * (w @ (x - g))

        def hessian(t, x):
            if t not in table:
                return np.zeros((state_dim, state_dim))
            return 2.0 * table[t][0]

        return _KeypointCost(table, value, gradient, hessian)


class _KeypointCost(StateCostFunction):
    """A step cost that is zero at every step but the keys of ``table``."""

    def __init__(self, table, value, gradient, hessian):
        super().__init__(value, gradient, hessian)
        self._table = table

    def _steps(self, N):
        return [t for t in range(N) if t in self._table]

    @property
    def keypoints(self):
        """(t, weight, target) of every keypoint, in time order."""
        return [(t, *self._table[t]) for t in sorted(self._table)]


def joint_limit_violation(theta, lower, upper):
    """Elementwise squared distance outside the box [lower, upper].

    Zero inside the limits (including on the boundary); (theta - bound)^2
    beyond either bound.  Embedding this in a plant's state lets a plain
    quadratic cost express soft joint limits.
    """
    theta = np.asarray(theta, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if (lower > upper).any():
        raise ValueError("lower limit exceeds upper limit")
    h = np.maximum(lower - theta, 0.0) + np.maximum(theta - upper, 0.0)
    return h * h


def joint_limit_violation_jacobian(theta, lower, upper):
    """Diagonal of d/d theta of :func:`joint_limit_violation` (zero on the boundary)."""
    theta = np.asarray(theta, dtype=float)
    h = np.maximum(lower - theta, 0.0) + np.maximum(theta - upper, 0.0)
    sign = np.where(theta > upper, 1.0, np.where(theta < lower, -1.0, 0.0))
    return 2.0 * h * sign


# -- Gaussian expectation helpers --------------------------------------------


def expected_quadratic(A, a, Q, mu, Sigma):
    """E[(Ax + a)' Q (Ax + a)] for x ~ N(mu, Sigma).

    Equals trace(A'QA Sigma) + (A mu + a)' Q (A mu + a); the second term is
    the non-centered correction of the zero-mean identity.
    """
    A = np.asarray(A, float)
    Q = np.asarray(Q, float)
    Sigma = np.asarray(Sigma, float)
    mean = A @ np.asarray(mu, float) + np.asarray(a, float)
    return float(np.trace(A.T @ Q @ A @ Sigma) + mean @ Q @ mean)


def expected_inner(A, a, B, b, mu, Sigma):
    """E[(Ax + a)' (Bx + b)] for x ~ N(mu, Sigma): trace(A'B Sigma) + mean term."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    Sigma = np.asarray(Sigma, float)
    ma = A @ np.asarray(mu, float) + np.asarray(a, float)
    mb = B @ np.asarray(mu, float) + np.asarray(b, float)
    return float(np.trace(A.T @ B @ Sigma) + ma @ mb)
