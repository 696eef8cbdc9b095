"""Feedforward retargeting without re-synthesis.

The synthesized feedback gains depend on the weights (Q, R) and the dynamics
but not on where the targets sit.  The feedforward k of the synthesis
recursion is linear in the linear term Q x_d and the input target u_d, so
k = F_x x_d + F_u u_d.  x_d enters only through Q x_d, so F_x is zero
outside the block columns of the few timesteps Q touches.  Those columns,
and F_u applied to the synthesis input target u_d0, come from the
controller's own gains and inverse step Hessians plus one feedforward-only
backward pass with one right-hand side each over the system's blocks
A_t, B_t: no second Riccati recursion and no factorization.
:class:`AdaptationMaps` keeps just that, its own copy of A and B, and the
controller it reads, which may come from ``controller.bin``: O(T) per
touched timestep, and no dense F_x or F_u.

An edit of x_d then costs one gather and one matrix-vector product.  An
edit that also moves u_d away from u_d0 adds one feedforward-only backward
pass for the difference, O(T) small products with the stored gains and
inverse step Hessians and no factorization; an unchanged u_d skips it.
The result equals, up to rounding, the feedforward a full re-solve gives.

The feedback part is untouched by edits, so swapping k on a live
controller is safe mid-rollout: past inputs were optimal for the old
targets, future inputs are optimal for the new ones given the history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import Controller, _check_structure, _transitions, feedforward_pass


@dataclass
class AdaptationMaps:
    """Linear maps from (x_d, u_d) to the feedforward vector k.

    ``touched`` (nt,) holds the timesteps Q touches, increasing, and
    ``F_x_blocks`` ((T+1)n, nt m) the block columns of F_x at them.
    ``k_u0`` is F_u ``u_d0`` for the synthesis input target.  ``A``, ``B``
    and ``R`` are the per-step data, and ``controller`` the law whose gains
    and inverse step Hessians carry an input-target edit through F_u.
    """

    touched: np.ndarray
    F_x_blocks: np.ndarray
    u_d0: np.ndarray
    k_u0: np.ndarray
    A: np.ndarray            # (T+1, m, m)
    B: np.ndarray            # (T+1, m, n)
    R: np.ndarray            # (T+1, n, n)
    controller: Controller

    def __post_init__(self):
        m = self.A.shape[1]
        self._x_idx = (m * np.asarray(self.touched, dtype=int)[:, None]
                       + np.arange(m)).ravel()

    def feedforward(self, x_d, u_d):
        """k for targets (x_d, u_d); ValueError on a wrong size or a non-finite entry."""
        x_d = np.asarray(x_d, float).reshape(-1)
        u_d = np.asarray(u_d, float).reshape(-1)
        T1, m, n = self.A.shape[0], self.controller.state_dim, self.controller.input_dim
        if x_d.size != T1 * m or u_d.size != T1 * n:
            raise ValueError(f"targets must have sizes ({T1 * m}, {T1 * n}), "
                             f"got ({x_d.size}, {u_d.size})")
        for name, v, dim in (("x_d", x_d, m), ("u_d", u_d, n)):
            finite = np.isfinite(v)
            if not finite.all():
                raise ValueError(f"{name} is non-finite at step {int(np.argmin(finite)) // dim}")
        k = self.F_x_blocks @ x_d[self._x_idx] + self.k_u0
        du = u_d - self.u_d0
        if du.any():
            F = _transitions(self.A, self.B, self.controller.held)
            k += feedforward_pass(F, self.R, self.controller, du.reshape(T1, n, 1)).ravel()
        return k


def precompute_gain_maps(system, cost, controller):
    """Assemble the target-to-feedforward maps of a synthesized controller.

    ``controller`` must be the one :func:`~slsctrl.solver.extract_controller`
    or :func:`~slsctrl.isls.isls_optimize` returned for this
    ``(system, cost)``, or that controller read back from its artifact:
    the maps keep it and read its held states, gains and inverse step
    Hessians.  ``cost`` supplies Q, R and the input target;
    the maps stay valid for any edit that moves targets while keeping
    weights, correlations' C and Q_c, and the dynamics fixed.  Only the
    blocks A_t, B_t of ``system`` are read.

    Block column j of F_x is the feedforward for the linear term Q[:, j],
    and is zero at timesteps Q does not touch.  One feedforward-only pass
    with the controller's gains carries those columns plus one for
    ``cost.u_d``.  Raises ValueError when the controller is None, carries
    no inverse step Hessians (built from a dense K), or differs from the
    cost in horizon, sizes or held states.
    """
    T, m, n = system.horizon, system.state_dim, system.input_dim
    if (cost.horizon, cost.state_dim, cost.input_dim) != (T, m, n):
        raise ValueError("cost dimensions do not match the system")
    _check_controller(controller, cost)
    touched = sorted({j for (_, j) in cost.Q})
    col = {j: a * m for a, j in enumerate(touched)}
    c = len(touched) * m + 1
    b = np.zeros((T + 1, m, c))
    for (i, j), blk in cost.Q.items():
        b[i, :, col[j]:col[j] + m] = blk
    u_d = np.zeros((T + 1, n, c))
    u_d[..., -1] = cost.u_d.reshape(T + 1, n)
    for name, cols in (("Q", b), ("u_d", u_d)):
        bad = ~np.isfinite(cols.reshape(T + 1, -1)).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite {name} at t={int(np.argmax(bad))}")
    A, B = system.A.copy(), system.B.copy()
    k = feedforward_pass(_transitions(A, B, controller.held), cost.R, controller, u_d,
                         b).reshape((T + 1) * n, c)
    return AdaptationMaps(touched=np.array(touched, dtype=int),
                          F_x_blocks=np.ascontiguousarray(k[:, :-1]),
                          u_d0=cost.u_d.copy(), k_u0=k[:, -1].copy(), A=A, B=B,
                          R=cost.R.copy(), controller=controller)


def _check_controller(controller, cost):
    """ValueError unless ``controller`` carries the gains the recursion gives for ``cost``."""
    if controller is None:
        raise ValueError("precompute_gain_maps needs the synthesized controller, got None")
    if getattr(controller, "hessian_inv", None) is None:
        raise ValueError("the controller carries no inverse step Hessians (it was built "
                         "from a dense K); pass the one extract_controller or "
                         "isls_optimize returned")
    _check_structure(controller, cost)


def adapt_feedforward(maps, x_d_new, u_d_new):
    """New feedforward vector for edited targets (no factorization, no solve)."""
    return maps.feedforward(x_d_new, u_d_new)
