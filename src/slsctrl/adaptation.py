"""Feedforward retargeting without re-synthesis.

The synthesized feedback maps depend on the weights (Q, R) and the dynamics
but not on where the targets sit: k = (I - K S_u) H^{-1} (S_u' Q x_d + R u_d)
is linear in (x_d, u_d).  Precomputing the two linear maps lets a running
controller be retargeted with a couple of matrix-vector products, orders of
magnitude cheaper than re-running the synthesis, and produces bit-for-bit
the same feedforward the full re-solve would.

The feedback part K is untouched by edits, so swapping k on a live
controller is safe mid-rollout: past inputs were optimal for the old
targets, future inputs are optimal for the new ones given the history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


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
    """Assemble the target-to-feedforward maps for a synthesized controller.

    ``cost`` supplies the weights (Q, R); the maps stay valid for any edit
    that moves targets while keeping weights, correlations' C and Q_c, and
    the dynamics fixed.  F_x = (I - K S_u) H^{-1} S_u' Q and
    F_u = (I - K S_u) H^{-1} R.
    """
    Su = stacked.S_u.dense
    QSu = cost.q_matmat(Su)
    H = Su.T @ QSu + cost.assemble_dense_r()
    H = (H + H.T) / 2
    factor = scipy.linalg.cho_factor(H, lower=True)
    E_x = scipy.linalg.cho_solve(factor, QSu.T)
    E_u = scipy.linalg.cho_solve(factor, cost.assemble_dense_r())
    M = np.eye(H.shape[0]) - controller.K.dense @ Su
    return AdaptationMaps(F_x=M @ E_x, F_u=M @ E_u)


def adapt_feedforward(maps, x_d_new, u_d_new):
    """New feedforward vector for edited targets (no factorization, no solve)."""
    return maps.feedforward(x_d_new, u_d_new)


def adapt_controller(controller, maps, x_d_new, u_d_new, in_place=False):
    """Retarget a controller; in place (atomic swap) or as a copy sharing K."""
    k_new = maps.feedforward(x_d_new, u_d_new)
    if in_place:
        controller.swap_feedforward(k_new)
        return controller
    return controller.with_feedforward(k_new)
