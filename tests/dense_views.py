"""Dense views of the package's O(T) objects, for comparison with the oracles.

The package never forms the closed-loop maps, the dense Q or the dense
retarget maps.  Each view here rebuilds one from public fields only: a
response's ``controller.held``, ``controller.gains`` and ``system.A``/``B``, a cost's ``Q`` blocks,
and the retarget maps' ``touched`` and ``F_x_blocks`` (F_u through
:func:`slsctrl.solver.feedforward_pass` on unit columns).  The residuals
are the dense formulas on the oracle's S_x and S_u.
"""

import numpy as np

from slsctrl.solver import _transitions, feedforward_pass

from oracles import dense_stacked_maps


def closed_loop_maps(response):
    """Dense (phi_x, phi_u) by block forward propagation of the response's policy."""
    A, B = response.system.A, response.system.B
    T = response.system.horizon
    m, n = response.system.state_dim, response.system.input_dim
    phi_x = np.zeros(((T + 1) * m, (T + 1) * m))
    phi_u = np.zeros(((T + 1) * n, (T + 1) * m))
    for t in range(T + 1):
        c = (t + 1) * m    # columns of disturbances up to step t
        phi_x[t * m:c, t * m:c] = np.eye(m)
        rows = [phi_x[s * m:(s + 1) * m, :c] for s in (t, *response.controller.held[t])]
        phi_u[t * n:(t + 1) * n, :c] = response.controller.gains[t] @ np.vstack(rows)
        if t < T:
            phi_x[c:c + m, :c] = A[t] @ rows[0] + B[t] @ phi_u[t * n:(t + 1) * n, :c]
    return phi_x, phi_u


def dense_q(cost):
    """Dense (T+1)m square Q from the cost's blocks."""
    m = cost.state_dim
    out = np.zeros(((cost.horizon + 1) * m, (cost.horizon + 1) * m))
    for (i, j), blk in cost.Q.items():
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
    return out


def dense_F_x(maps):
    """Dense ((T+1)n, (T+1)m) F_x: the stored block columns, zero elsewhere."""
    T1, m, n = maps.A.shape[0], maps.A.shape[1], maps.R.shape[1]
    F = np.zeros((T1 * n, T1 * m))
    for a, t in enumerate(maps.touched):
        F[:, t * m:(t + 1) * m] = maps.F_x_blocks[:, a * m:(a + 1) * m]
    return F


def dense_F_u(maps):
    """Dense ((T+1)n, (T+1)n) F_u: the feedforward-only pass on every unit input target."""
    T1, n = maps.R.shape[:2]
    cols = np.eye(T1 * n).reshape(T1, n, T1 * n)
    F = _transitions(maps.A, maps.B, maps.controller.held)
    return feedforward_pass(F, maps.R, maps.controller, cols).reshape(T1 * n, T1 * n)


def achievability_residual(system, phi_x, phi_u):
    """||phi_x - S_x - S_u phi_u||_F / max(1, ||phi_x||_F) on dense S_x, S_u."""
    S_x, S_u = dense_stacked_maps(system.A, system.B)
    return float(np.linalg.norm(phi_x - S_x - S_u @ phi_u)
                 / max(1.0, np.linalg.norm(phi_x)))


def feedforward_residual(system, d_x, d_u):
    """||d_x - S_u d_u|| / max(1, ||d_x||) on dense S_u."""
    _, S_u = dense_stacked_maps(system.A, system.B)
    return float(np.linalg.norm(d_x - S_u @ d_u) / max(1.0, np.linalg.norm(d_x)))
