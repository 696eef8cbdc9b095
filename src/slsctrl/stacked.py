"""Stacked representation of finite-horizon linear time-varying systems.

The whole trajectory is treated as one linear-algebra object: states, inputs
and disturbances over a horizon of T steps are stacked into single vectors

    x = [x_0, ..., x_T],   u = [u_0, ..., u_T],   w = [x_0, w_0, ..., w_{T-1}],

and the dynamics become ``x = Z A_d x + Z B_d u + w`` where ``A_d``, ``B_d``
are block diagonal and ``Z`` is the block delay operator (identity blocks on
the first block subdiagonal).  The two causal response operators

    S_x = (I - Z A_d)^{-1}        (maps disturbances to states),
    S_u = S_x Z B_d               (maps inputs to states),

are block lower triangular.  Neither ``Z`` nor the operators are ever
materialized: the synthesis, the batch plan, the retargeting maps and the
residuals run recursions over the blocks A_t, B_t (see
:mod:`slsctrl.solver`), so :func:`build_stacked` is O(1).  The dense
operators exist only as the tests' oracle.  :class:`BlockLowerTriangular`
is the one dense view left, of a controller's gain (``Controller.K``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BlockLowerTriangular:
    """Block lower triangular matrix with uniform block sizes.

    Stores a dense backing array whose blocks above the diagonal are
    structurally zero; the constructor checks the shape and enforces the
    zero pattern.  Instances are treated as immutable once built.
    """

    def __init__(self, dense, row_block_dim, col_block_dim, copy=True):
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

    def _mask_upper(self):
        r, c = self.row_block_dim, self.col_block_dim
        for i in range(self.T_blocks):
            self._dense[i * r:(i + 1) * r, (i + 1) * c:] = 0.0

    def __repr__(self):
        return (
            f"BlockLowerTriangular(T_blocks={self.T_blocks}, "
            f"block=({self.row_block_dim}x{self.col_block_dim}))"
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
    """A time-varying system viewed as the stacked operators S_x and S_u.

    Only the blocks A_t, B_t are stored; every consumer runs a recursion
    over them instead of forming the dense operators.
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


def build_stacked(system):
    """Wrap a time-varying system for synthesis; O(1), nothing dense is built."""
    return StackedSystem(system)

