"""Stacked representation of finite-horizon linear time-varying systems.

The whole trajectory is treated as one linear-algebra object: states, inputs
and disturbances over a horizon of T steps are stacked into single vectors

    x = [x_0, ..., x_T],   u = [u_0, ..., u_T],   w = [x_0, w_0, ..., w_{T-1}],

and the dynamics become ``x = Z A_d x + Z B_d u + w`` where ``A_d``, ``B_d``
are block diagonal and ``Z`` is the block delay operator (identity blocks on
the first block subdiagonal).  The two causal response operators

    S_x = (I - Z A_d)^{-1}        (maps disturbances to states),
    S_u = S_x Z B_d               (maps inputs to states),

are block lower triangular.  ``Z`` is never materialized.

Neither the synthesis nor the retargeting maps read the dense operators:
both run a recursion over the blocks A_t, B_t (see :mod:`slsctrl.solver`).
So :func:`build_stacked` is O(1), and each operator is assembled on first
access by block forward propagation, in O(T^2 m^2 (m or n)) flops and
O((T m)^2) memory, for the batch baseline, the residuals and the test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class BlockLowerTriangular:
    """Block lower triangular matrix with uniform block sizes.

    Stores a dense backing array whose blocks above the diagonal (strictly
    above for ``strict=True``) are structurally zero; the constructor
    enforces the zero pattern.  Blocks are addressed by block indices
    ``(i, j)`` with ``i >= j`` (``i > j`` when strict).  Instances are
    treated as immutable once built; builders use :meth:`set_block` during
    assembly only.
    """

    def __init__(self, dense, row_block_dim, col_block_dim, strict=False, copy=True):
        dense = np.array(dense, dtype=float, copy=copy)
        if dense.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = dense.shape
        if rows % row_block_dim or cols % col_block_dim:
            raise ValueError(
                f"shape {dense.shape} not divisible by block dims "
                f"({row_block_dim}, {col_block_dim})"
            )
        if rows // row_block_dim != cols // col_block_dim:
            raise ValueError("row and column block counts differ")
        self.row_block_dim = int(row_block_dim)
        self.col_block_dim = int(col_block_dim)
        self.strict = bool(strict)
        self._dense = dense
        self._mask_upper()

    @property
    def T_blocks(self):
        """Number of block rows (= block columns)."""
        return self._dense.shape[0] // self.row_block_dim

    @property
    def dense(self):
        """The dense backing array. Do not mutate."""
        return self._dense

    @property
    def shape(self):
        return self._dense.shape

    def _mask_upper(self):
        r, c = self.row_block_dim, self.col_block_dim
        first_zero = 0 if self.strict else 1
        for i in range(self.T_blocks):
            self._dense[i * r:(i + 1) * r, (i + first_zero) * c:] = 0.0

    @classmethod
    def zeros(cls, n_blocks, row_block_dim, col_block_dim, strict=False):
        dense = np.zeros((n_blocks * row_block_dim, n_blocks * col_block_dim))
        return cls(dense, row_block_dim, col_block_dim, strict=strict, copy=False)

    @classmethod
    def identity(cls, n_blocks, block_dim):
        return cls(np.eye(n_blocks * block_dim), block_dim, block_dim, copy=False)

    def _check_index(self, i, j):
        nb = self.T_blocks
        if not (0 <= i < nb and 0 <= j < nb):
            raise IndexError(f"block index ({i}, {j}) out of range for {nb} blocks")

    def block(self, i, j):
        """Return a copy of block (i, j); blocks above the diagonal are zero."""
        self._check_index(i, j)
        r, c = self.row_block_dim, self.col_block_dim
        return self._dense[i * r:(i + 1) * r, j * c:(j + 1) * c].copy()

    def set_block(self, i, j, value):
        self._check_index(i, j)
        if i < j or (self.strict and i == j):
            raise ValueError(
                f"block ({i}, {j}) is structurally zero for this "
                f"{'strictly ' if self.strict else ''}lower triangular matrix"
            )
        value = np.asarray(value, dtype=float)
        r, c = self.row_block_dim, self.col_block_dim
        if value.shape != (r, c):
            raise ValueError(f"block shape {value.shape} != ({r}, {c})")
        self._dense[i * r:(i + 1) * r, j * c:(j + 1) * c] = value

    def __matmul__(self, other):
        if isinstance(other, BlockLowerTriangular):
            if self.col_block_dim != other.row_block_dim or self.T_blocks != other.T_blocks:
                raise ValueError("incompatible block structure for product")
            return BlockLowerTriangular(
                self._dense @ other._dense,
                self.row_block_dim,
                other.col_block_dim,
                strict=self.strict or other.strict,
                copy=False,
            )
        other = np.asarray(other, dtype=float)
        return self._dense @ other

    def __repr__(self):
        return (
            f"BlockLowerTriangular(T_blocks={self.T_blocks}, "
            f"block=({self.row_block_dim}x{self.col_block_dim}), strict={self.strict})"
        )


@dataclass
class TimeVaryingLinearSystem:
    """Discrete linear time-varying dynamics x_{t+1} = A_t x_t + B_t u_t + w_t.

    ``A`` and ``B`` hold T+1 blocks (t = 0..T); the final pair is carried for
    dimension bookkeeping but never propagates anything (it is shifted out).
    """

    A: list
    B: list

    def __post_init__(self):
        self.A = [np.asarray(a, dtype=float) for a in self.A]
        self.B = [np.asarray(b, dtype=float) for b in self.B]
        if len(self.A) != len(self.B):
            raise ValueError("A and B block lists must have equal length (T+1)")
        if not self.A:
            raise ValueError("need at least one block (T >= 0)")
        m = self.A[0].shape[0]
        n = self.B[0].shape[1]
        for t, (a, b) in enumerate(zip(self.A, self.B)):
            if a.shape != (m, m):
                raise ValueError(f"A[{t}] has shape {a.shape}, expected ({m}, {m})")
            if b.shape != (m, n):
                raise ValueError(f"B[{t}] has shape {b.shape}, expected ({m}, {n})")

    @property
    def horizon(self):
        return len(self.A) - 1

    @property
    def state_dim(self):
        return self.A[0].shape[0]

    @property
    def input_dim(self):
        return self.B[0].shape[1]

    @classmethod
    def constant(cls, A, B, horizon):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        return cls([A.copy() for _ in range(horizon + 1)],
                   [B.copy() for _ in range(horizon + 1)])


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


class StackedSystem:
    """A time-varying system; its dense S_x and S_u are built on first access.

    Row block t+1 of either operator is A_t times row block t plus the block
    entering at step t (the identity for S_x, B_t for S_u).
    """

    def __init__(self, system):
        self.system = system

    @property
    def horizon(self):
        return self.system.horizon

    @property
    def state_dim(self):
        return self.system.state_dim

    @property
    def input_dim(self):
        return self.system.input_dim

    @cached_property
    def S_x(self):
        T, m = self.horizon, self.state_dim
        sx = np.zeros(((T + 1) * m, (T + 1) * m))
        sx[:m, :m] = np.eye(m)
        for t in range(T):
            c = (t + 1) * m
            sx[c:c + m, :c] = self.system.A[t] @ sx[t * m:c, :c]
            sx[c:c + m, c:c + m] = np.eye(m)
        return BlockLowerTriangular(sx, m, m, copy=False)

    @cached_property
    def S_u(self):
        T, m, n = self.horizon, self.state_dim, self.input_dim
        su = np.zeros(((T + 1) * m, (T + 1) * n))
        for t in range(T):
            c = (t + 1) * m
            su[c:c + m, :t * n] = self.system.A[t] @ su[t * m:c, :t * n]
            su[c:c + m, t * n:(t + 1) * n] = self.system.B[t]
        return BlockLowerTriangular(su, m, n, strict=True, copy=False)


def build_stacked(system):
    """Wrap a time-varying system; its dense operators are built on first use."""
    return StackedSystem(system)


def achievability_residual(stacked, phi_x, phi_u):
    """Relative Frobenius residual of the closed-loop map constraint.

    Measures ||phi_x - S_x - S_u phi_u||_F / max(1, ||phi_x||_F); any causal
    pair of response maps the dynamics can realize makes this zero.
    """
    px = phi_x.dense if isinstance(phi_x, BlockLowerTriangular) else np.asarray(phi_x)
    pu = phi_u.dense if isinstance(phi_u, BlockLowerTriangular) else np.asarray(phi_u)
    Sx, Su = stacked.S_x.dense, stacked.S_u.dense
    m, n = stacked.state_dim, stacked.input_dim
    # chunks of block rows keep every temporary far below one dense operator;
    # S_u's row blocks below i1 only reach the input columns below i1
    sq = 0.0
    for i0 in range(0, stacked.horizon + 1, 32):
        i1 = min(i0 + 32, stacked.horizon + 1)
        rows = slice(i0 * m, i1 * m)
        res = px[rows] - Sx[rows] - Su[rows, :i1 * n] @ pu[:i1 * n]
        sq += float(np.sum(res * res))
    return float(np.sqrt(sq) / max(1.0, np.linalg.norm(px)))


def feedforward_residual(stacked, d_x, d_u):
    """Relative residual of the feedforward consistency constraint d_x = S_u d_u."""
    d_x = np.asarray(d_x, dtype=float)
    res = d_x - stacked.S_u @ np.asarray(d_u, dtype=float)
    return float(np.linalg.norm(res) / max(1.0, np.linalg.norm(d_x)))
