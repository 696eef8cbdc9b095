"""Finite-horizon linear time-varying systems and their stacked view.

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
residuals run recursions over the blocks A_t, B_t of a
:class:`TimeVaryingLinearSystem`, which holds them as two stacked arrays
(see :mod:`slsctrl.solver`).  The dense operators exist only as the tests'
oracle.  :class:`BlockLowerTriangular` is the one dense view left, of a
controller's gain (``Controller.K``).
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

    ``A`` (T+1, m, m) and ``B`` (T+1, m, n) hold the blocks for t = 0..T as
    float arrays; they may be given as per-step lists or as stacked arrays.
    The final pair is carried for dimension bookkeeping but never
    propagates anything (it is shifted out).
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if len(self.A) != len(self.B):
            raise ValueError("A and B must hold the same number of blocks (T+1)")
        if not len(self.A):
            raise ValueError("need at least one block (T >= 0)")
        m, n = len(self.A[0]), np.shape(self.B[0])[-1]
        self.A, self.B = _stacked("A", self.A, (m, m)), _stacked("B", self.B, (m, n))

    @property
    def horizon(self):
        return len(self.A) - 1

    @property
    def state_dim(self):
        return self.A.shape[1]

    @property
    def input_dim(self):
        return self.B.shape[2]

    @classmethod
    def constant(cls, A, B, horizon):
        """The pair (A, B) repeated at every step t = 0..horizon."""
        return cls(np.repeat(np.asarray(A, dtype=float)[None], horizon + 1, axis=0),
                   np.repeat(np.asarray(B, dtype=float)[None], horizon + 1, axis=0))


def _stacked(name, blocks, shape):
    """``blocks`` as one float array (T+1, *shape); ValueError names the first misfit."""
    try:
        out = np.asarray(blocks, dtype=float)
        if out.shape[1:] == shape:
            return out
    except ValueError:    # blocks of different shapes do not stack
        pass
    for t, b in enumerate(blocks):
        if np.shape(b) != shape:
            raise ValueError(f"{name}[{t}] has shape {np.shape(b)}, expected {shape}")
    return np.asarray(blocks, dtype=float)   # every shape fits: numpy's error says what failed


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


def build_stacked(system):
    """The system itself: synthesis reads its blocks A_t, B_t directly.

    Kept as the name through which the benchmark traces the stacking layer.
    """
    return system
