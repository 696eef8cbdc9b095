"""Feedforward retargeting without re-synthesis.

The synthesized feedback gains depend on the weights (Q, R) and the dynamics
but not on where the targets sit.  The feedforward k of the synthesis
recursion is linear in the linear term Q x_d and the input target u_d, so
k = F_x x_d + F_u u_d.  One pass of the recursion, with one right-hand side
per map column, builds both maps.  A running controller is then retargeted
with two matrix-vector products, orders of magnitude cheaper than re-running
the synthesis, and equal up to rounding to the feedforward a full re-solve
gives.

The feedback part K is untouched by edits, so swapping k on a live
controller is safe mid-rollout: past inputs were optimal for the old
targets, future inputs are optimal for the new ones given the history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import riccati_gains


@dataclass
class AdaptationMaps:
    """Linear maps from (x_d, u_d) to the feedforward vector k."""

    F_x: np.ndarray   # ((T+1)n, (T+1)m)
    F_u: np.ndarray   # ((T+1)n, (T+1)n)

    @property
    def input_size(self):
        return self.F_x.shape[0]

    def feedforward(self, x_d, u_d):
        return self.F_x @ np.asarray(x_d, float).reshape(-1) \
            + self.F_u @ np.asarray(u_d, float).reshape(-1)


def precompute_gain_maps(stacked, cost, controller):
    """Assemble the target-to-feedforward maps of a synthesized controller.

    ``cost`` supplies the weights (Q, R); the maps stay valid for any edit
    that moves targets while keeping weights, correlations' C and Q_c, and
    the dynamics fixed.  Only the blocks A_t, B_t of ``stacked`` are read.
    ``controller`` is not read: the maps follow from the weights and the
    dynamics alone.

    x_d enters only through Q x_d, so block column j of F_x is the
    feedforward for the linear term Q[:, j], and is zero at timesteps Q does
    not touch; column i of F_u is the feedforward for the unit input target
    e_i.  All columns come from one pass of the synthesis recursion.
    """
    system = stacked.system
    T, m, n = system.horizon, system.state_dim, system.input_dim
    touched = sorted({j for (_, j) in cost.Q})
    col = {j: a * m for a, j in enumerate(touched)}
    cx, cu = len(touched) * m, (T + 1) * n
    b = np.zeros((T + 1, m, cx + cu))
    for (i, j), blk in cost.Q.items():
        b[i, :, col[j]:col[j] + m] = blk
    u_d = np.zeros((cu, cx + cu))
    np.fill_diagonal(u_d[:, cx:], 1.0)
    k = riccati_gains(system, cost, b, u_d.reshape(T + 1, n, -1))[2].reshape(cu, -1)
    F_x = np.zeros((cu, (T + 1) * m))
    for j in touched:
        F_x[:, j * m:(j + 1) * m] = k[:, col[j]:col[j] + m]
    return AdaptationMaps(F_x=F_x, F_u=np.ascontiguousarray(k[:, cx:]))


def adapt_feedforward(maps, x_d_new, u_d_new):
    """New feedforward vector for edited targets (no factorization, no solve)."""
    return maps.feedforward(x_d_new, u_d_new)


def adapt_controller(controller, maps, x_d_new, u_d_new, in_place=False):
    """Retarget a controller; in place (atomic swap) or as a copy sharing the gains."""
    k_new = maps.feedforward(x_d_new, u_d_new)
    if in_place:
        controller.swap_feedforward(k_new)
        return controller
    return controller.with_feedforward(k_new)
