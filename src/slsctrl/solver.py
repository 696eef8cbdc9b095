"""Closed-loop map synthesis for tracking problems on a time-varying system.

The synthesis reads the system's stacked blocks A_t, B_t directly and
optimizes the causal closed-loop maps (phi_x, phi_u) from the stacked
disturbance w = [x_0, w_0, ...] to states and inputs, subject to
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
Each step is one product G = F_t'P F_t of the cost-to-go z'Pz of z_{t+1}
through the step's transition z_{t+1} = F_t [z_t; u_t]; its blocks give the
step Hessian H_t = G_uu + R_t = R_t + B_t'P B_t, the gain and the next P.
Only the H_t must be positive definite, which one batched Cholesky checks
after the loop; the cost-to-go may be indefinite in the held states.  The
law acts on states, so K = phi_u phi_x^{-1} and k = d_u - K d_x: its blocks
K[t, s], s < t, are the memory that lets cross-time terms bind future
inputs to realized history.  :class:`Controller`, the one carrier of that
law from the recursion to the artifacts, keeps it per step, O(T) in memory.
The maps are never formed: the residuals check the plan and the gains
against the cost by O(T) forward and adjoint passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .costs import CostSpec
from .stacked import BlockLowerTriangular, TimeVaryingLinearSystem


@dataclass
class SystemResponse:
    """The synthesized policy, as a :class:`Controller`, and its deterministic plan.

    The policy is u_t = gains[t] z_t + k[t] with z_t = [x_t; x_s for s in
    held[t]]; ``controller`` also carries the recursion's inverse step
    Hessians, which :func:`feedforward_pass` needs to carry other
    right-hand sides.  The plan (d_x, d_u), the policy's trajectory from
    x_0 = 0, is computed on the first read of ``plan``, ``d_x`` or ``d_u``
    and kept on this response only: ``dataclasses.replace`` does not carry it.
    """

    system: TimeVaryingLinearSystem
    cost: CostSpec
    controller: Controller
    d_x = property(lambda self: self.plan[0], doc="States of the plan, stacked.")
    d_u = property(lambda self: self.plan[1], doc="Inputs of the plan, stacked.")

    @cached_property
    def plan(self):
        """(d_x, d_u), stacked."""
        xs, us = _run_policy(self.system, self.controller, np.zeros(self.system.state_dim))
        return xs.ravel(), us.ravel()

    def stationarity(self, plan=None):
        """Relative gradient of the deterministic tracking cost at ``plan`` (d_x, d_u).

        ``plan`` is the response's own when None.  The gradient in u is
        S_u'(Q d_x - b) + R (d_u - u_d), which is H d_u - r with
        H = S_u'QS_u + R and r = S_u'b + R u_d when d_x = S_u d_u; this
        returns its norm over ||r||.  Both S_u' products come from one
        adjoint pass over A_t and B_t, a route that shares nothing with the
        recursion.
        """
        d_x, d_u = self.plan if plan is None else plan
        cost = self.cost
        T, m, n = self.system.horizon, self.system.state_dim, self.system.input_dim
        g = np.stack([cost.q_matvec(d_x), cost.linear_term], axis=1).reshape(T + 1, m, 2)
        u = np.stack([d_u, cost.u_d], axis=1).reshape(T + 1, n, 2)
        Hu_r = _input_adjoint(self.system, g) + cost.R @ u
        r = np.linalg.norm(Hu_r[..., 1])
        return float(np.linalg.norm(Hu_r[..., 0] - Hu_r[..., 1]) / max(r, np.finfo(float).tiny))

    def gain_stationarity(self):
        """:func:`gain_stationarity` of the response's own gains."""
        return gain_stationarity(self.system, self.cost, self.controller)

    def residuals(self, stacked=None):
        """Stationarity of the plan and of the feedback gains; ``stacked`` is not read."""
        return {"stationarity": self.stationarity(),
                "gain_stationarity": self.gain_stationarity()}


def gain_stationarity(system, cost, law):
    """Relative input gradient of the feedback's responses to x_0 = e_j, j = 1..m.

    With zero feedforward the policy's trajectory (x, u) from x_0 = e_j
    is column j of (phi_x, phi_u), which minimizes x'Qx + u'Ru over all
    inputs, so S_u'Qx + Ru vanishes.  This returns its Frobenius norm over
    the m responses, relative to the sum of the norms of the two terms,
    from the adjoint pass :meth:`SystemResponse.stationarity` runs.  It
    checks the gains of ``law``, memory blocks included, along these m
    trajectories.
    """
    T, m, n = system.horizon, system.state_dim, system.input_dim
    xs, us = _run_policy(system, law, np.eye(m), np.zeros((T + 1, n, m)))
    SuQx = _input_adjoint(system, cost.q_matvec(xs.reshape((T + 1) * m, m)).reshape(xs.shape))
    Ru = cost.R @ us
    scale = np.linalg.norm(SuQx) + np.linalg.norm(Ru)
    return float(np.linalg.norm(SuQx + Ru) / max(scale, np.finfo(float).tiny))


# genuine solves read 1e-15 to 7e-13, gains of a tenfold mug_sugar control weight 0.82
GAIN_STATIONARITY_LIMIT = 1e-8


def check_law(system, cost, law):
    """ValueError unless ``law`` is the optimal law of ``(system, cost)``.

    The law must have the cost's horizon and state/input sizes (``system``
    has them too), hold the states :func:`held_states` gives, and have its
    :func:`gain_stationarity` at most GAIN_STATIONARITY_LIMIT.  The message
    names what differs.
    """
    _check_structure(law, cost)
    residual = gain_stationarity(system, cost, law)
    if not residual <= GAIN_STATIONARITY_LIMIT:
        raise ValueError(f"controller gain_stationarity {residual:.3g} exceeds "
                         f"{GAIN_STATIONARITY_LIMIT:g}: the law was solved for other "
                         "weights or dynamics than the cost's")


def _check_structure(law, cost):
    """ValueError unless ``law`` has the horizon, sizes and held states of ``cost``."""
    dims = (cost.horizon, cost.state_dim, cost.input_dim)
    got = (law.horizon, law.state_dim, law.input_dim)
    if got != dims:
        raise ValueError(f"controller horizon and state/input sizes {got} differ from "
                         f"the cost's {dims}")
    held = held_states(cost)
    if list(law.held) != held:
        t = next(t for t, (a, b) in enumerate(zip(law.held, held)) if a != b)
        raise ValueError(f"controller holds timesteps {law.held[t]} at t={t}, "
                         f"the cost's correlations need {held[t]}")


def _input_adjoint(system, g):
    """S_u'g for columns g (T+1, m, c): one adjoint pass over A_t and B_t."""
    A, B = system.A, system.B
    out = np.zeros((len(B), B.shape[2], g.shape[2]))
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
    takes them directly, and :meth:`open_loop` makes an input plan the law
    with zero gains.  Without a nominal the law acts on absolute states;
    the iterative solver wraps it around a nominal trajectory by a copy that
    shares the gains (``_around``), for each line-search trial and its result.

    ``hessian_inv`` (T+1, n, n) holds the inverse step Hessians of the
    recursion that produced the gains, so the retarget maps need no second
    recursion.  The artifacts store it; it is None only for a controller
    built from a dense K.

    ``k`` is the one mutable piece: :meth:`swap_feedforward` replaces the
    whole vector by reference, so a concurrent reader that captured the
    attribute sees either the old or the new feedforward, never a mixture.
    """

    # every attribute _set_steps sets
    _FIELDS = ("held", "gains", "horizon", "input_dim", "state_dim", "hessian_inv", "_idx",
               "k", "nominal_x", "nominal_u")

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

    @classmethod
    def open_loop(cls, inputs, state_dim):
        """The K = 0 law u_t = inputs[t] of a (T+1, n) input plan: no held states."""
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or not np.isfinite(inputs).all():
            raise ValueError("inputs must be a finite (T+1, n) array")
        T1, n = inputs.shape
        return cls.from_gains([()] * T1, list(np.zeros((T1, n, state_dim))), inputs)

    def _set_steps(self, held, gains, k, nominal_x, nominal_u, hessian_inv):
        n, m = gains[0].shape[0], gains[0].shape[1] // (1 + len(held[0]))
        self.held, self.gains, self.horizon = held, gains, len(gains) - 1
        self.input_dim, self.state_dim = n, m
        shapes = [(n, m * (1 + len(h))) for h in held]
        # one check over all blocks; only a failure scans for the first bad t
        if [g.shape for g in gains] != shapes or not np.isfinite(np.concatenate(gains, 1)).all():
            t = next(t for t, (shape, g) in enumerate(zip(shapes, gains, strict=True))
                     if g.shape != shape or not np.isfinite(g).all())
            raise ValueError(f"gain block at t={t} must be finite, shape {shapes[t]}")
        if hessian_inv is not None and (np.shape(hessian_inv) != (len(gains), n, n)
                                        or not np.isfinite(hessian_inv).all()):
            raise ValueError(f"hessian_inv must be finite, shape {(len(gains), n, n)}, "
                             f"got {np.shape(hessian_inv)}")
        self.hessian_inv = hessian_inv
        self._idx = _history_indices(held, m)   # a view, or one gather, per step
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
        twin = type(self).__new__(type(self))
        # by name: vars() or copy.copy would give self a __dict__ for good on
        # CPython 3.11, and each later control() on it would run ~8% slower
        for name in self._FIELDS:
            setattr(twin, name, getattr(self, name))
        twin.swap_feedforward(k_new)
        return twin

    def _around(self, k, nominal_x, nominal_u):
        """Copy sharing the gains, with feedforward ``k`` around a nominal: checks only these."""
        twin = self.with_feedforward(k)
        T1 = len(self.gains)
        twin.nominal_x = _checked_vector("nominal_x", nominal_x, T1 * self.state_dim)
        twin.nominal_u = _checked_vector("nominal_u", nominal_u, T1 * self.input_dim)
        return twin

    def control(self, t, x_history):
        """Input at step t given the states observed so far (shape (t+1, m) or flat)."""
        n = self.input_dim
        hist = np.asarray(x_history, dtype=float).reshape(-1)
        if hist.size != (t + 1) * self.state_dim:
            raise ValueError(f"history at t={t} must contain t+1 state blocks")
        idx = self._idx[t]
        z = hist[idx] if self.nominal_x is None else hist[idx] - self.nominal_x[idx]
        u = self.gains[t] @ z + self.k[t * n:(t + 1) * n]   # one read; see swap_feedforward
        if self.nominal_u is not None:
            u = u + self.nominal_u[t * n:(t + 1) * n]
        return u


class _Episode:
    """A law run online on one rollout's own buffers, one step per call.

    ``states`` (T+1, m) is C-contiguous, and the caller writes x_t into its
    row t before :meth:`control` at step t writes u_t into ``inputs[t]``;
    ``inputs`` is read only for its shape.  z_t is gathered from the flat
    state buffer, a view at a step that holds no state.  A law with a
    nominal keeps a deviation buffer instead, one row x_t - nominal_x,t per
    step.  The gains and nominals are read once; the feedforward is read
    from ``law`` at every step, so a :meth:`Controller.swap_feedforward` on
    it, or a ``law`` replaced by its :meth:`Controller.with_feedforward`
    twin, acts from the next step.  Each u_t has the bits of
    ``law.control(t, states[:t + 1])``.
    """

    __slots__ = ("law", "_steps", "_z", "_dev", "_nominal_x", "_nominal_u")

    def __init__(self, law, states, inputs):
        T1, m, n = len(law.gains), law.state_dim, law.input_dim
        if states.shape != (T1, m) or inputs.shape != (T1, n):
            raise ValueError(f"a law on {m} states and {n} inputs over {T1} steps cannot "
                             f"run on states {states.shape} and inputs {inputs.shape}")
        self.law = law
        k_rows = (slice(t * n, (t + 1) * n) for t in range(T1))
        self._steps = list(zip(law.gains, law._idx, k_rows))   # per step: gain, z_t, k_t
        self._dev = self._nominal_x = self._nominal_u = None
        if law.nominal_x is None:
            self._z = states.reshape(-1)   # a view: the rows are filled in place
        else:
            self._dev = np.empty((T1, m))
            self._z = self._dev.reshape(-1)
            self._nominal_x = law.nominal_x.reshape(T1, m)
            self._nominal_u = law.nominal_u.reshape(T1, n)

    def control(self, t, x, u):
        """Write u_t into ``u``, the row ``inputs[t]``; ``x`` is the row ``states[t]``."""
        gain, idx, rows = self._steps[t]
        if self._dev is not None:
            np.subtract(x, self._nominal_x[t], out=self._dev[t])
        np.add(gain @ self._z[idx], self.law.k[rows], out=u)
        if self._nominal_u is not None:
            np.add(u, self._nominal_u[t], out=u)


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
    # s is held on (s, e]: the set changes only where some s enters or leaves
    T1 = cost.horizon + 1
    cuts = sorted({0, T1, *(s + 1 for s in reach), *(e + 1 for e in reach.values())})
    held = []
    for a, b in zip(cuts, cuts[1:]):
        held += [tuple(sorted(s for s, e in reach.items() if s < a <= e))] * (b - a)
    return held


def _history_indices(held, m):
    """Per step t, where z_t = [x_t; x_s for s in held[t]] sits in a stacked history.

    A step that holds no state reads z_t = x_t through the slice of its own
    block, a view.  The other steps come in runs that hold the same states;
    each run is one broadcast and its rows are the steps' index arrays.
    """
    idx, ar, t = [], np.arange(m), 0
    for h, run in groupby(held):
        end = t + len(list(run))
        if not h:
            idx.extend(slice(m * s, m * (s + 1)) for s in range(t, end))
        else:
            rows = np.empty((end - t, m * (1 + len(h))), dtype=int)
            rows[:, :m] = m * np.arange(t, end)[:, None] + ar
            rows[:, m:] = (m * np.array(h, dtype=int)[:, None] + ar).ravel()
            idx.extend(rows)
        t = end
    return idx


def _transitions(A, B, held):
    """Per step t, F_t = [D_t S_t, [B_t; 0]] with z_{t+1} = F_t [z_t; u_t] and D_t = diag(A_t, I).

    S_t selects from z_t the states step t+1 holds.  Each run of steps with
    the same (held[t], held[t+1]) is one batched fill, so only the few steps
    where a held state enters or leaves are filled alone.
    """
    m, n = B.shape[1:]
    F, t = [], 0
    for (h, after), run in groupby(zip(held, [*held[1:], ()])):
        end = t + len(list(run))
        M = m * (1 + len(h))
        Fr = np.zeros((end - t, m * (1 + len(after)), M + n))
        Fr[:, :m, :m], Fr[:, :m, M:] = A[t:end], B[t:end]
        for a, s in enumerate(after, start=1):
            c = 0 if s == t else 1 + h.index(s)    # s == t: x_t enters the held states
            Fr[:, a * m:(a + 1) * m, c * m:(c + 1) * m] = np.eye(m)
        F.extend(Fr)
        t = end
    return F


def _stage_costs(cost, held, m):
    """Per step t that Q touches, the pieces (rows, block) of its stage cost z_t'Q_z z_t.

    z_t'Q_z z_t = x_t'Q_tt x_t + 2 sum_s x_s'Q_st x_t: Q_tt sits in the rows
    and columns of x_t, each Q_st in the rows of x_s and the columns of x_t,
    and its transpose mirrors it.  ``rows`` is a slice of z_t; the blocks are
    the cost's own, not copies, and the recursion only reads them.
    """
    stage = {}
    for (s, t), Q in cost.Q.items():
        if s <= t:
            a = 0 if s == t else 1 + held[t].index(s)
            stage.setdefault(t, []).append((slice(a * m, (a + 1) * m), Q))
    return stage


def _check_step_hessians(H):
    """ValueError naming the largest t with H[t] not PD: one batched Cholesky, then a scan."""
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        for t in range(len(H) - 1, -1, -1):
            try:
                np.linalg.cholesky(H[t])
            except np.linalg.LinAlgError:
                raise ValueError(f"step Hessian R_t + B_t'P B_t at t={t} is not positive "
                                 "definite; check that R is PD and Q is PSD") from None


def riccati_gains(system, cost):
    """Backward recursion over the held-state augmentation (see module notes).

    Per step, G = F_t'P F_t (:func:`_transitions`) gives H_t = G_uu + R_t,
    the gain K_t = -H_t^{-1} G_uz and P_t = G_zz + G_zu K_t plus the stage
    cost of z_t; one batched Cholesky of every H_t follows the loop, and
    :func:`feedforward_pass` on the same F_t gives the feedforward.  Returns
    the policy u_t = gains[t] z_t + k[t] as a :class:`Controller` carrying
    the inverse step Hessians (T+1, n, n).  Raises ValueError on mismatched
    or non-finite data and on a non-PD step Hessian, naming the largest t.
    """
    T, m, n = system.horizon, system.state_dim, system.input_dim
    if cost.horizon != T or cost.state_dim != m or cost.input_dim != n:
        raise ValueError("cost dimensions do not match the system")
    # one right-hand-side column of feedforward_pass
    b, u_d = cost.linear_term.reshape(T + 1, m, 1), cost.u_d.reshape(T + 1, n, 1)
    for name, blocks in [("A_t", system.A), ("B_t", system.B),
                         ("R_t", cost.R), ("linear term", b), ("u_d", u_d)]:
        bad = ~np.isfinite(blocks.reshape(T + 1, -1)).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite {name} at t={int(np.argmax(bad))}")
    # one check over all blocks; only a failure scans for the block to name
    if cost.Q and not np.isfinite(np.concatenate(list(cost.Q.values()))).all():
        i, j = next(key for key, blk in cost.Q.items() if not np.isfinite(blk).all())
        raise ValueError(f"non-finite Q block ({i}, {j})")
    held = held_states(cost)
    F, stage = _transitions(system.A, system.B, held), _stage_costs(cost, held, m)
    gains, H, hinv = [None] * (T + 1), np.zeros((T + 1, n, n)), np.empty((T + 1, n, n))
    P = np.zeros((m, m))   # cost-to-go of z_{t+1}; nothing follows step T
    try:
        # past a non-PD H_t the recursion means nothing and may overflow
        with np.errstate(all="ignore"):
            for t in range(T, -1, -1):
                G = F[t].T @ (P @ F[t])
                M = G.shape[0] - n
                H[t] = G[M:, M:] + cost.R[t]
                hinv[t] = np.linalg.inv(H[t])
                gains[t] = -hinv[t] @ G[M:, :M]
                P = G[:M, :M] + G[:M, M:] @ gains[t]
                for rows, Q in stage.get(t, ()):
                    P[rows, :m] += Q
                    if rows.start:   # Q_st of a held s, and its mirror
                        P[:m, rows] += Q.T
                P = (P + P.T) / 2
    except np.linalg.LinAlgError:
        pass   # H[t] is exactly singular: the check names it, or a later step
    _check_step_hessians(H)
    law = Controller.from_gains(held, gains, np.zeros((T + 1) * n), hessian_inv=hinv)
    law.swap_feedforward(feedforward_pass(F, cost.R, law, u_d, b).ravel())
    return law


def feedforward_pass(F, R, law, u_d, b=None):
    """Feedforward columns (T+1, n, c) for input targets u_d (T+1, n, c) and linear terms b.

    ``F`` holds the transitions of ``law.held`` (:func:`_transitions`), and
    ``b`` (T+1, m, c) the linear-term columns, zero when None.  The gains
    and inverse step Hessians of ``law``, a :class:`Controller` from
    :func:`riccati_gains`, stay fixed, so each column costs O(T) small
    products and no factorization: on the recursion's F_t, q = F_t'p,
    g_t = R_t u_d,t + q_u and p_t = q_z + K_t'g_t + [b_t; 0] for the linear
    cost-to-go -2p'z of z_{t+1}, then one batched k_t = H_t^{-1} g_t.
    """
    T1, m, n, c = len(F), law.state_dim, law.input_dim, u_d.shape[2]
    g, p, Ru = np.empty((T1, n, c)), np.zeros((m, c)), R @ u_d
    # a zero block of b adds nothing, so only the steps that carry one add it
    carries = [False] * T1 if b is None else b.any(axis=(1, 2)).tolist()
    for t in range(T1 - 1, -1, -1):
        q = F[t].T @ p
        g[t] = Ru[t] + q[-n:]
        p = q[:-n] + law.gains[t].T @ g[t]
        if carries[t]:
            p[:m] += b[t]
    return law.hessian_inv @ g


def solve_esls(system, cost):
    """Synthesize the optimal causal policy and plan for a tracking cost on ``system``.

    Only the per-step blocks A_t, B_t of ``system`` are read; the R blocks
    of ``cost`` must be positive definite.  Returns a :class:`SystemResponse`
    with the policy, whose responses to a disturbance at step i are block
    column i of the maps (phi_x, phi_u), and the plan (d_x, d_u) from
    x_0 = 0, which solves H d_u = S_u'b + R u_d and is computed on its
    first read.  Raises ValueError on mismatched or non-finite data and on
    a step Hessian that is not positive definite (the message names it).
    """
    return SystemResponse(system=system, cost=cost, controller=riccati_gains(system, cost))


def _run_policy(system, law, x0, k=None):
    """Deterministic trajectory (xs, us) of ``law`` from x0, with feedforward ``k``.

    ``x0`` (m,) with ``k`` (T+1, n), by default the law's own, runs one
    trajectory; ``x0`` (m, c) with ``k`` (T+1, n, c) runs c of them at once.
    """
    T, m, n = system.horizon, system.state_dim, system.input_dim
    k = law.k.reshape(T + 1, n) if k is None else k
    cols = np.shape(x0)[1:]
    x, us = np.zeros(((T + 1) * m, *cols)), np.zeros((T + 1, n, *cols))
    xs = x.reshape(T + 1, m, *cols)
    xs[0] = x0
    for t, (gain, idx) in enumerate(zip(law.gains, law._idx)):
        us[t] = gain @ x[idx] + k[t]
        if t < T:
            xs[t + 1] = system.A[t] @ xs[t] + system.B[t] @ us[t]
    return xs, us


def extract_controller(response):
    """The realizable feedback form K = phi_u phi_x^{-1}, k = d_u - K d_x of a response.

    A shallow copy of its controller: a later
    :meth:`Controller.swap_feedforward` on it leaves the response as it was.
    """
    return response.controller.with_feedforward(response.controller.k)
