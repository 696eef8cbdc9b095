"""Closed-loop map synthesis for stacked tracking problems.

The synthesis optimizes the causal closed-loop maps (phi_x, phi_u) from the
stacked disturbance w = [x_0, w_0, ...] to states and inputs, subject to
phi_x = S_x + S_u phi_u.  Block column i sees only the cost blocks with both
timesteps >= i; its optimum is the response of the optimal causal policy to
a disturbance at step i.  The feedforward (d_x, d_u) solves the
deterministic tracking problem, and x = phi_x w + d_x whatever the noise
scale, so no noise covariance enters.

That policy comes from a backward Riccati recursion.  A cross-time block
Q(s, j), s < j, makes the cost-to-go at every t in (s, j] depend on x_s, so
the recursion runs on the augmented state

    z_t = [x_t; x_s for s in held_t],   held_t = {s < t : Q(s, j) != 0, j >= t},

where terms sharing s share one slot, and gives u_t = K_t z_t + k_t in
O(T (m (1 + h))^3) time for h held states (h = 0 is the ordinary tracker).
Only the step Hessian R_t + B_t' P B_t must be positive definite; the
cost-to-go may be indefinite in the held states.  The law acts on states,
so K = phi_u phi_x^{-1} and k = d_u - K d_x: its blocks K[t, s], s < t, are
the memory that lets cross-time terms bind future inputs to realized
history.  :class:`Controller` keeps the law in this per-step form, O(T) in
memory.  The maps themselves are never formed: the residuals check the
plan and the gains against the cost by O(T) forward and adjoint passes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .costs import CostSpec
from .stacked import BlockLowerTriangular, TimeVaryingLinearSystem


@dataclass
class SystemResponse:
    """Per-step gains of the synthesized policy and its deterministic plan.

    The policy is u_t = gains[t] z_t + k[t] with z_t = [x_t; x_s for s in
    held[t]].  ``hessian_inv`` holds the recursion's inverse step Hessians,
    which :func:`feedforward_pass` needs to carry other right-hand sides.
    """

    system: TimeVaryingLinearSystem
    cost: CostSpec
    held: list        # per step, the sorted held timesteps
    gains: list       # per step, (n, m (1 + len(held[t])))
    hessian_inv: np.ndarray  # (T+1, n, n), (R_t + B_t'P B_t)^{-1}
    k: np.ndarray     # (T+1, n)
    d_x: np.ndarray
    d_u: np.ndarray

    def stationarity(self):
        """Relative gradient of the deterministic tracking cost at (d_x, d_u).

        The gradient in u is S_u'(Q d_x - b) + R (d_u - u_d), which is
        H d_u - r with H = S_u'QS_u + R and r = S_u'b + R u_d when
        d_x = S_u d_u; this returns its norm over ||r||.  Both S_u' products
        come from one adjoint pass over A_t and B_t, a route that shares
        nothing with the recursion.
        """
        cost = self.cost
        T, m, n = self.system.horizon, self.system.state_dim, self.system.input_dim
        g = np.stack([cost.q_matvec(self.d_x), cost.linear_term], axis=1).reshape(T + 1, m, 2)
        u = np.stack([self.d_u, cost.u_d], axis=1).reshape(T + 1, n, 2)
        Hu_r = _input_adjoint(self.system, g) + cost.R @ u
        r = np.linalg.norm(Hu_r[..., 1])
        return float(np.linalg.norm(Hu_r[..., 0] - Hu_r[..., 1]) / max(r, np.finfo(float).tiny))

    def gain_stationarity(self):
        """Relative input gradient of the feedback's responses to x_0 = e_j, j = 1..m.

        With zero feedforward the policy's trajectory (x, u) from x_0 = e_j
        is column j of (phi_x, phi_u), which minimizes x'Qx + u'Ru over all
        inputs, so S_u'Qx + Ru vanishes.  This returns its Frobenius norm
        over the m responses, relative to the sum of the norms of the two
        terms, from the adjoint pass :meth:`stationarity` runs.  It checks
        the gains, memory blocks included, along these m trajectories.
        """
        cost = self.cost
        T, m, n = self.system.horizon, self.system.state_dim, self.system.input_dim
        xs, us = _run_policy(self.system, self.held, self.gains, np.zeros((T + 1, n, m)),
                             np.eye(m))
        SuQx = _input_adjoint(self.system,
                              cost.q_matvec(xs.reshape((T + 1) * m, m)).reshape(xs.shape))
        Ru = cost.R @ us
        scale = np.linalg.norm(SuQx) + np.linalg.norm(Ru)
        return float(np.linalg.norm(SuQx + Ru) / max(scale, np.finfo(float).tiny))

    def residuals(self, stacked):
        """Stationarity of the plan and of the feedback gains; ``stacked`` is not read."""
        return {"stationarity": self.stationarity(),
                "gain_stationarity": self.gain_stationarity()}


def _input_adjoint(system, g):
    """S_u'g for columns g (T+1, m, c): one adjoint pass over A_t and B_t."""
    A, B = system.A, system.B
    out = np.zeros((len(B), B[0].shape[1], g.shape[2]))
    lam = np.zeros(g.shape[1:])    # adjoint of x_{t+1}
    for t in range(len(A) - 1, -1, -1):
        out[t] = B[t].T @ lam
        lam = g[t] + A[t].T @ lam
    return out


class Controller:
    """Affine causal controller u_t = sum_{s<=t} K[t,s] (x_s - nominal) + k_t.

    ``gains[t]`` holds the only blocks that can be nonzero, K[t, t] and
    K[t, s] for s in ``held[t]``, side by side.  The constructor keeps those
    blocks of a dense :class:`BlockLowerTriangular`; :meth:`from_gains`
    takes them directly.  Without a nominal the law acts on absolute states;
    the iterative solver wraps it around a nominal trajectory.

    ``hessian_inv`` (T+1, n, n) holds the inverse step Hessians of the
    recursion that produced the gains, shared with the synthesis, so the
    retarget maps need no second recursion.  It is None for a controller
    built from a dense K or read from an artifact.

    ``k`` is the one mutable piece: :meth:`swap_feedforward` replaces the
    whole vector by reference, so a concurrent reader that captured the
    attribute sees either the old or the new feedforward, never a mixture.
    """

    def __init__(self, K, k, nominal_x=None, nominal_u=None):
        if not isinstance(K, BlockLowerTriangular):
            raise TypeError("K must be BlockLowerTriangular")
        n, m, T1 = K.row_block_dim, K.col_block_dim, K.T_blocks
        blocks = K.dense.reshape(T1, n, T1, m).transpose(0, 2, 1, 3)   # [t, s]
        nonzero = blocks.any(axis=(2, 3))
        held = [tuple(np.flatnonzero(nonzero[t, :t]).tolist()) for t in range(T1)]
        gains = [np.hstack([blocks[t, s] for s in (t, *held[t])]) for t in range(T1)]
        self._set_steps(held, gains, k, nominal_x, nominal_u, None)

    @classmethod
    def from_gains(cls, held, gains, k, nominal_x=None, nominal_u=None, hessian_inv=None):
        """Controller on per-step held timesteps and gain blocks, shared, not copied."""
        ctrl = cls.__new__(cls)
        ctrl._set_steps(held, gains, k, nominal_x, nominal_u, hessian_inv)
        return ctrl

    def _set_steps(self, held, gains, k, nominal_x, nominal_u, hessian_inv):
        n, m = gains[0].shape[0], gains[0].shape[1] // (1 + len(held[0]))
        self.held, self.gains, self.horizon = held, gains, len(gains) - 1
        self.input_dim, self.state_dim = n, m
        for t, (h, g) in enumerate(zip(held, gains, strict=True)):
            if g.shape != (n, m * (1 + len(h))) or not np.isfinite(g).all():
                raise ValueError(f"gain block at t={t} must be finite, shape "
                                 f"{(n, m * (1 + len(h)))}")
        if hessian_inv is not None and np.shape(hessian_inv) != (len(gains), n, n):
            raise ValueError(f"hessian_inv must have shape {(len(gains), n, n)}, "
                             f"got {np.shape(hessian_inv)}")
        self.hessian_inv = hessian_inv
        self._idx = _history_indices(held, m)   # one gather per step
        self.k = _checked_vector("k", k, len(gains) * n)
        if (nominal_x is None) != (nominal_u is None):
            raise ValueError("nominal_x and nominal_u must be supplied together")
        self.nominal_x = _checked_vector("nominal_x", nominal_x, len(gains) * m)
        self.nominal_u = _checked_vector("nominal_u", nominal_u, len(gains) * n)

    @property
    def K(self):
        """The dense feedback as a :class:`BlockLowerTriangular`, built on each access."""
        T1, m, n = len(self.gains), self.state_dim, self.input_dim
        K = np.zeros((T1 * n, T1 * m))
        for t in range(T1):
            K[t * n:(t + 1) * n, self._idx[t]] = self.gains[t]
        return BlockLowerTriangular(K, n, m, copy=False)

    def swap_feedforward(self, k_new):
        """Atomically replace the feedforward vector (whole-array swap)."""
        self.k = _checked_vector("k", k_new, self.k.size)

    def with_feedforward(self, k_new):
        """Copy sharing the gains and nominals but carrying a different feedforward."""
        twin = copy.copy(self)
        twin.swap_feedforward(k_new)
        return twin

    def _feedback(self, t, x, x_ref=None):
        """gains[t] times z_t read from the flat history x, less x_ref if given."""
        idx = self._idx[t]
        return self.gains[t] @ (x[idx] if x_ref is None else x[idx] - x_ref[idx])

    def control(self, t, x_history):
        """Input at step t given the states observed so far (shape (t+1, m) or flat)."""
        n = self.input_dim
        hist = np.asarray(x_history, dtype=float).reshape(-1)
        if hist.size != (t + 1) * self.state_dim:
            raise ValueError(f"history at t={t} must contain t+1 state blocks")
        k = self.k  # capture once; see swap_feedforward
        u = self._feedback(t, hist, self.nominal_x) + k[t * n:(t + 1) * n]
        if self.nominal_u is not None:
            u = u + self.nominal_u[t * n:(t + 1) * n]
        return u

    def absolute_feedforward(self):
        """The law rewritten as u = K x + k_abs; equals k when no nominal is set."""
        if self.nominal_x is None:
            return self.k.copy()
        Kx = [self._feedback(t, self.nominal_x) for t in range(len(self.gains))]
        return self.nominal_u + self.k - np.concatenate(Kx)


def _checked_vector(name, v, size):
    if v is None:
        return None
    v = np.array(v, dtype=float).reshape(-1)
    if v.size != size or not np.isfinite(v).all():
        raise ValueError(f"{name} must be {size} finite numbers, got {v.size}")
    return v


def held_states(cost):
    """Per step t, the sorted earlier timesteps s with a cost block (s, j), j >= t."""
    reach = {}
    for (i, j) in cost.Q:
        if i != j:
            reach[min(i, j)] = max(reach.get(min(i, j), 0), i, j)
    return [tuple(sorted(s for s, e in reach.items() if s < t <= e))
            for t in range(cost.horizon + 1)]


def _history_indices(held, m):
    """Per step t, the flat indices of z_t = [x_t; x_s for s in held[t]] in a stacked history.

    Steps come in runs that hold the same states; each run is one broadcast
    and its rows are the steps' index arrays.
    """
    idx, ar, t = [], np.arange(m), 0
    for h, run in groupby(held):
        end = t + len(list(run))
        rows = np.empty((end - t, m * (1 + len(h))), dtype=int)
        rows[:, :m] = m * np.arange(t, end)[:, None] + ar
        rows[:, m:] = (m * np.array(h, dtype=int)[:, None] + ar).ravel()
        idx.extend(rows)
        t = end
    return idx


def _held_shift(held, t, m):
    """Selection S with z_{t+1} = diag(A_t, I) S z_t + [B_t; 0] u_t, or None if S = I.

    S is the identity whenever step t+1 holds the states step t holds, which
    is every step but the few where a held state enters or leaves.
    """
    after = held[t + 1] if t + 1 < len(held) else ()
    if after == held[t]:
        return None
    slots = (t, *held[t])
    S = np.zeros((1 + len(after), len(slots)))
    S[0, 0] = 1.0
    for a, s in enumerate(after, start=1):
        S[a, slots.index(s)] = 1.0
    return np.kron(S, np.eye(m))


def _feedforward_step(A, B, hinv, gain, S, p, Ru, b=None):
    """Feedforward half of one backward step: (k_t, p_t) from p_{t+1}, all columns at once.

    With g = Ru + B_t'p[:m], where Ru is R_t u_d, k_t = (R_t + B_t'P B_t)^{-1} g
    and p_t = S'D'p + gain' g, plus b on the x_t rows.  Only the step's gain
    and inverse Hessian enter, not P, so the gains of one pass serve any
    right-hand side.
    """
    m = A.shape[0]
    g = Ru + B.T @ p[:m]
    Dp = p.copy()
    Dp[:m] = A.T @ p[:m]
    if S is not None:
        Dp = S.T @ Dp
    p = Dp + gain.T @ g
    if b is not None:
        p[:m] += b
    return hinv @ g, p


def riccati_gains(system, cost):
    """Backward recursion over the held-state augmentation (see module notes).

    Returns (held, gains, k, hinv) of the optimal policy
    u_t = gains[t] z_t + k[t] for the cost's own linear term and input
    target, k of shape (T+1, n), and the inverse step Hessians hinv
    (T+1, n, n) with which :func:`feedforward_pass` carries any other
    right-hand side.  Raises ValueError on mismatched or non-finite data and
    on a step Hessian that is not positive definite.
    """
    T, m, n = system.horizon, system.state_dim, system.input_dim
    if cost.horizon != T or cost.state_dim != m or cost.input_dim != n:
        raise ValueError("cost dimensions do not match the system")
    # one right-hand-side column, kept 2-D so every product is the one a
    # multi-column feedforward_pass makes
    b, u_d = cost.linear_term.reshape(T + 1, m, 1), cost.u_d.reshape(T + 1, n, 1)
    for name, blocks in [("A_t", np.asarray(system.A)), ("B_t", np.asarray(system.B)),
                         ("R_t", cost.R), ("linear term", b), ("u_d", u_d)]:
        bad = ~np.isfinite(blocks.reshape(T + 1, -1)).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite {name} at t={int(np.argmax(bad))}")
    for (i, j), blk in cost.Q.items():
        if not np.isfinite(blk).all():
            raise ValueError(f"non-finite Q block ({i}, {j})")
    held = held_states(cost)
    gains, hinv, k = [None] * (T + 1), np.empty((T + 1, n, n)), np.empty((T + 1, n, 1))
    # cost-to-go of z_{t+1} as z'Pz - 2p'z; nothing follows step T
    P, p, Ru = np.zeros((m, m)), np.zeros((m, 1)), cost.R @ u_d
    for t in range(T, -1, -1):
        A, B, S = system.A[t], system.B[t], _held_shift(held, t, m)
        # z_{t+1} = D S z_t + [B_t; 0] u_t with D = diag(A_t, I)
        PD = P.copy()
        PD[:, :m] = P[:, :m] @ A
        Huz = B.T @ PD[:m]
        PD[:m] = A.T @ PD[:m]
        if S is not None:
            Huz, PD = Huz @ S, S.T @ PD @ S
        try:
            L = np.linalg.cholesky(cost.R[t] + B.T @ P[:m, :m] @ B)
        except np.linalg.LinAlgError:
            raise ValueError(f"step Hessian R_t + B_t'P B_t at t={t} is not positive "
                             "definite; check that R is PD and Q is PSD") from None
        L_inv = np.linalg.inv(L)
        hinv[t] = L_inv.T @ L_inv
        gains[t] = -hinv[t] @ Huz
        P = PD + Huz.T @ gains[t]
        # stage cost of z_t: x_t'Q_tt x_t + 2 sum_s x_s'Q_st x_t; its -2 b_t'x_t goes to p
        for a, s in enumerate((t, *held[t])):
            Q = cost.Q.get((s, t))
            if Q is not None:
                P[a * m:(a + 1) * m, :m] += Q
                if a:
                    P[:m, a * m:(a + 1) * m] += Q.T
        P = (P + P.T) / 2
        k[t], p = _feedforward_step(A, B, hinv[t], gains[t], S, p, Ru[t], b[t])
    return held, gains, k[..., 0], hinv


def feedforward_pass(A, B, R, held, gains, hinv, u_d, b=None):
    """Feedforward columns (T+1, n, c) for input targets u_d (T+1, n, c) and linear terms b.

    ``b`` (T+1, m, c) holds the linear-term columns, zero when None.  The
    gains and inverse step Hessians of :func:`riccati_gains` stay fixed, so
    each column costs O(T) small products and no factorization, in the
    order the recursion itself makes them.
    """
    T1, m, c = len(gains), A[0].shape[0], u_d.shape[2]
    k, p, Ru = np.empty((T1, gains[0].shape[0], c)), np.zeros((m, c)), R @ u_d
    for t in range(T1 - 1, -1, -1):
        k[t], p = _feedforward_step(A[t], B[t], hinv[t], gains[t], _held_shift(held, t, m),
                                    p, Ru[t], None if b is None else b[t])
    return k


def solve_esls(stacked, cost):
    """Synthesize the optimal causal policy and plan for a stacked tracking cost.

    Only the per-step blocks A_t, B_t of ``stacked`` are read; the R blocks
    of ``cost`` must be positive definite.  Returns a :class:`SystemResponse`
    with the per-step gains, whose responses to a disturbance at step i are
    block column i of the maps (phi_x, phi_u), and the plan (d_x, d_u) from
    x_0 = 0, which solves H d_u = S_u'b + R u_d.  Raises ValueError on
    mismatched or non-finite data and on a step Hessian that is not
    positive definite (the message names the step).
    """
    system = stacked.system
    held, gains, k, hinv = riccati_gains(system, cost)
    xs, us = _run_policy(system, held, gains, k, np.zeros(system.state_dim))
    return SystemResponse(system=system, cost=cost, held=held, gains=gains, hessian_inv=hinv,
                          k=k, d_x=xs.ravel(), d_u=us.ravel())


def _run_policy(system, held, gains, k, x0):
    """Deterministic trajectory (xs, us) of the policy u_t = gains[t] z_t + k[t] from x0.

    ``x0`` (m,) with ``k`` (T+1, n) runs one trajectory; ``x0`` (m, c) with
    ``k`` (T+1, n, c) runs c of them at once.
    """
    T, m, n = system.horizon, system.state_dim, system.input_dim
    cols = np.shape(x0)[1:]
    x, us = np.zeros(((T + 1) * m, *cols)), np.zeros((T + 1, n, *cols))
    xs = x.reshape(T + 1, m, *cols)
    xs[0] = x0
    for t, idx in enumerate(_history_indices(held, m)):
        us[t] = gains[t] @ x[idx] + k[t]
        if t < T:
            xs[t + 1] = system.A[t] @ xs[t] + system.B[t] @ us[t]
    return xs, us


def extract_controller(response):
    """The realizable feedback form of a response, sharing its held states, gains
    and inverse step Hessians.

    This is K = phi_u phi_x^{-1} and k = d_u - K d_x of the map parameterization.
    """
    return Controller.from_gains(response.held, response.gains, response.k.ravel(),
                                 hessian_inv=response.hessian_inv)
