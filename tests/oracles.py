"""Independent reference computations that pin expected test values.

Everything here recomputes quantities from first principles: explicit dense
inversion, normal equations assembled directly from the cost definition,
brute-force scans, closed-form geometry, and Monte Carlo.  None of it calls
into the package's solver internals, so a test comparing against these
helpers checks two genuinely different routes to the same number.
"""

import numpy as np
import scipy.linalg


def dense_stacked_maps(A_list, B_list):
    """Disturbance/input-to-state maps by building Z A_d, Z B_d and inverting.

    Returns (S_x, S_u) as dense arrays of shape ((T+1)m, (T+1)m) and
    ((T+1)m, (T+1)n).
    """
    A_list = [np.atleast_2d(np.asarray(A, float)) for A in A_list]
    B_list = [np.atleast_2d(np.asarray(B, float)) for B in B_list]
    T = len(A_list) - 1
    m = A_list[0].shape[0]
    n = B_list[0].shape[1]
    N, M = (T + 1) * m, (T + 1) * n
    ZA = np.zeros((N, N))
    ZB = np.zeros((N, M))
    for t in range(T):
        ZA[(t + 1) * m:(t + 2) * m, t * m:(t + 1) * m] = A_list[t]
        ZB[(t + 1) * m:(t + 2) * m, t * n:(t + 1) * n] = B_list[t]
    S_x = np.linalg.inv(np.eye(N) - ZA)
    return S_x, S_x @ ZB


def dense_tracking_pieces(T, m, n, viapoints=(), correlations=(), control_weight=0.0):
    """Assemble dense (Q, b, R, u_d) for a tracking cost from its raw terms.

    The cost is sum_t (x - g)' W (x - g) over viapoints, plus each
    correlation (C x_{t1} + c - x_{t2})' Qc (.), plus (u - u_d)' R (u - u_d)
    per step.  Returned so that the total equals  x' Q x - 2 b' x + const
    in the state part.  ``viapoints`` holds (t, target, W) with W scalar,
    diagonal vector or matrix; ``correlations`` holds (t1, t2, C, c, Qc).
    """
    N, M = (T + 1) * m, (T + 1) * n
    Q = np.zeros((N, N))
    b = np.zeros(N)
    for t, g, W in viapoints:
        W = np.asarray(W, float)
        if W.ndim == 0:
            W = np.eye(m) * W
        elif W.ndim == 1:
            W = np.diag(W)
        sl = slice(t * m, (t + 1) * m)
        Q[sl, sl] += W
        b[sl] += W @ np.asarray(g, float)
    for t1, t2, C, c, Qc in correlations:
        C = np.asarray(C, float)
        c = np.asarray(c, float)
        Qc = np.asarray(Qc, float)
        s1 = slice(t1 * m, (t1 + 1) * m)
        s2 = slice(t2 * m, (t2 + 1) * m)
        Q[s1, s1] += C.T @ Qc @ C
        Q[s2, s2] += Qc
        Q[s1, s2] += -C.T @ Qc
        Q[s2, s1] += -Qc @ C
        b[s1] += -C.T @ Qc @ c
        b[s2] += Qc @ c
    Rw = np.asarray(control_weight, float)
    if Rw.ndim == 0:
        Rblk = np.eye(n) * Rw
    elif Rw.ndim == 1:
        Rblk = np.diag(Rw)
    else:
        Rblk = Rw
    R = np.kron(np.eye(T + 1), Rblk)
    return Q, b, R, np.zeros(M)


def kkt_feedback(S_x, S_u, Q, R, m, n):
    """Optimal causal response maps by per-column dense KKT solves.

    For each disturbance column i the variables are the causally allowed
    entries of the input response (block row >= block of i); the objective
    is the full quadratic (S_x e_i + S_u phi)' Q (.) + phi' R phi.  Entries
    outside the support contribute nothing because the column of S_x is
    zero above block i, so no trailing truncation is needed here.
    """
    N = S_x.shape[0]
    M = S_u.shape[1]
    H = S_u.T @ Q @ S_u + R
    G = S_u.T @ Q @ S_x
    phi_u = np.zeros((M, N))
    for i in range(N):
        blk = i // m
        supp = np.arange(blk * n, M)
        phi_u[supp, i] = np.linalg.solve(H[np.ix_(supp, supp)], -G[supp, i])
    return S_x + S_u @ phi_u, phi_u


def dense_esls(S_x, S_u, Q, R, b, u_d, m, n):
    """Closed-loop maps, plan and controller by dense trailing column solves.

    Column i of phi_u solves H[i:, i:] phi = -G[i:, i] with H = S_u'QS_u + R
    and G = S_u'QS_x; one Cholesky of H in reversed block order serves every
    column, because a leading block of the reversed factor factors a trailing
    block of H.  The plan solves H d_u = S_u'b + R u_d with d_x = S_u d_u.
    The controller is K = phi_u phi_x^{-1} (unit-triangular substitution)
    and k = d_u - K d_x.  Returns (phi_x, phi_u, d_x, d_u, K, k).
    """
    H = S_u.T @ Q @ S_u + R
    H = (H + H.T) / 2
    G = S_u.T @ Q @ S_x
    L_rev = np.linalg.cholesky(H[::-1, ::-1])

    def solve_trailing(rhs):
        s = rhs.shape[0]
        y = scipy.linalg.solve_triangular(L_rev[:s, :s], rhs[::-1], lower=True)
        return scipy.linalg.solve_triangular(L_rev[:s, :s].T, y, lower=False)[::-1]

    phi_u = np.zeros((S_u.shape[1], S_x.shape[1]))
    for i in range(S_x.shape[1] // m):
        phi_u[i * n:, i * m:(i + 1) * m] = -solve_trailing(G[i * n:, i * m:(i + 1) * m])
    phi_x = S_x + S_u @ phi_u
    d_u = solve_trailing((S_u.T @ b + R @ u_d)[:, None]).ravel()
    d_x = S_u @ d_u
    K = scipy.linalg.solve_triangular(phi_x.T, phi_u.T, lower=False, unit_diagonal=True).T
    return phi_x, phi_u, d_x, d_u, K, d_u - K @ d_x


def dense_gain_maps(S_u, Q, R, K):
    """Target-to-feedforward maps by dense normal equations.

    The plan for targets (x_d, u_d) solves H d_u = S_u'Q x_d + R u_d with
    H = S_u'QS_u + R, and the feedforward of the law u = K x + k is
    k = d_u - K S_u d_u.  Returns (F_x, F_u) with k = F_x x_d + F_u u_d.
    """
    H = S_u.T @ Q @ S_u + R
    E = np.linalg.solve((H + H.T) / 2, np.hstack([S_u.T @ Q, R]))
    F = (np.eye(H.shape[0]) - K @ S_u) @ E
    return F[:, :Q.shape[0]], F[:, Q.shape[0]:]


def solve_sls_column(stacked, cost, col):
    """Solve one block column of the closed-loop map problem on its own.

    Returns full-height (phi_x_col, phi_u_col) of shapes ((T+1)m, m) and
    ((T+1)n, m), zero above block ``col``.  The trailing cost blocks
    Q^{i:}, R^{i:} keep an off-diagonal correlation block exactly when both
    of its timesteps are >= i; the normal equations are assembled directly
    from them.
    """
    T = stacked.horizon
    m, n = stacked.state_dim, stacked.input_dim
    if not (0 <= col <= T):
        raise ValueError(f"column {col} outside horizon [0, {T}]")
    km, kn = col * m, col * n
    S_x, S_u = dense_stacked_maps(stacked.A, stacked.B)
    Su_t = S_u[km:, kn:]
    Sx_col = S_x[km:, km:km + m]

    nt = T + 1 - col
    Qt = np.zeros((nt * m, nt * m))
    for (i, j), blk in cost.Q.items():
        if i >= col and j >= col:
            Qt[(i - col) * m:(i - col + 1) * m, (j - col) * m:(j - col + 1) * m] = blk
    Rt = np.zeros((nt * n, nt * n))
    for t in range(col, T + 1):
        Rt[(t - col) * n:(t - col + 1) * n, (t - col) * n:(t - col + 1) * n] = cost.R[t]

    M = Su_t.T @ Qt @ Su_t + Rt
    rhs = Su_t.T @ Qt @ Sx_col
    phi_u_t = -np.linalg.solve((M + M.T) / 2, rhs)
    phi_x_t = Sx_col + Su_t @ phi_u_t

    phi_x = np.zeros(((T + 1) * m, m))
    phi_u = np.zeros(((T + 1) * n, m))
    phi_x[km:] = phi_x_t
    phi_u[kn:] = phi_u_t
    return phi_x, phi_u


def dense_plan(S_x, S_u, Q, b, R, u_d, w=None):
    """Optimal open-loop input plan by explicit normal equations."""
    if w is None:
        w = np.zeros(S_x.shape[0])
    H = S_u.T @ Q @ S_u + R
    rhs = S_u.T @ (b - Q @ (S_x @ w)) + R @ u_d
    return np.linalg.solve(H, rhs)


def riccati_regulator_gains(A, B, Q, R, T):
    """Time-varying LQR gains u = K_t x by the standard backward recursion.

    Cost is sum_{t=0}^{T} x'Qx + u'Ru; the recursion starts from P_T = Q
    and the unused final input gets a zero gain.
    """
    m = A.shape[0]
    P = np.asarray(Q, float)
    gains = [np.zeros((B.shape[1], m))]
    for _ in range(T):
        Hm = R + B.T @ P @ B
        K = -np.linalg.solve(Hm, B.T @ P @ A)
        Acl = A + B @ K
        P = Q + K.T @ R @ K + Acl.T @ P @ Acl
        P = (P + P.T) / 2
        gains.append(K)
    return gains[::-1]


def riccati_regulator_value(A, B, Q, R, T, x0):
    """Optimal cost of sum_{t=0}^{T} x'Qx + u'Ru from x0 (last input unused)."""
    P = np.asarray(Q, float)
    for _ in range(T):
        Hm = R + B.T @ P @ B
        K = -np.linalg.solve(Hm, B.T @ P @ A)
        Acl = A + B @ K
        P = Q + K.T @ R @ K + Acl.T @ P @ Acl
        P = (P + P.T) / 2
    x0 = np.atleast_1d(np.asarray(x0, float))
    return float(x0 @ P @ x0)


def fd_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian of a vector map, written from scratch."""
    x = np.asarray(x, float)
    y0 = np.asarray(f(x), float)
    J = np.zeros((y0.size, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        J[:, j] = (np.asarray(f(x + e), float) - np.asarray(f(x - e), float)) / (2 * h)
    return J


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, float)
    g = np.zeros(x.size)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, float)
    d = x.size
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d); ei[i] = h
            ej = np.zeros(d); ej[j] = h
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return (H + H.T) / 2


def per_step_quadratization(state_cost, xs, regularization, hessian_floor=None):
    """State-cost part of a quadratized objective, one step at a time.

    Returns ({t: Q_t}, lin, x_d) with Q_t = H_t / 2 for the regularized (and
    optionally eigenvalue-floored) Hessian H_t, x_d[t] the min-norm
    ``np.linalg.lstsq`` solution of H_t x = -g_t, and lin[t] = Q_t x_d[t];
    steps with zero curvature and gradient carry no block.
    """
    T1, m = xs.shape
    Q, lin, x_d = {}, np.zeros((T1, m)), np.zeros((T1, m))
    for t in range(T1):
        H = state_cost.hessian(t, xs[t])
        H = (H + H.T) / 2 + regularization * np.eye(m)
        if hessian_floor is not None:
            w, V = np.linalg.eigh(H)
            H = (V * np.maximum(w, hessian_floor)) @ V.T
        g = state_cost.gradient(t, xs[t])
        if not np.any(H) and not np.any(g):
            continue
        x_d[t] = np.linalg.lstsq(H, -g, rcond=None)[0]
        Q[t] = H / 2
        lin[t] = Q[t] @ x_d[t]
    return Q, lin, x_d


def two_link_ik(lengths, target):
    """Closed-form elbow-down inverse kinematics; None when unreachable."""
    l1, l2 = lengths
    x, y = target
    r2 = x * x + y * y
    cos_q2 = (r2 - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    if abs(cos_q2) > 1.0:
        return None
    q2 = np.arccos(cos_q2)
    q1 = np.arctan2(y, x) - np.arctan2(l2 * np.sin(q2), l1 + l2 * np.cos(q2))
    return np.array([q1, q2])


def planar_fk(lengths, theta):
    """End-effector position of a planar chain by summing link vectors."""
    ang = np.cumsum(theta)
    x = float(np.sum(np.asarray(lengths) * np.cos(ang)))
    y = float(np.sum(np.asarray(lengths) * np.sin(ang)))
    return np.array([x, y])


def alpha_scan(cost_of_alpha, grid):
    """Brute-force 1-D scan; returns (best_alpha, costs array)."""
    costs = np.array([cost_of_alpha(a) for a in grid])
    return float(grid[int(np.argmin(costs))]), costs


def closed_loop_step_reference(plant, controller, k_scaled, x_hat, u_hat):
    """The line search's trial run as its own per-step loop.

    From x_hat[0] on the plant, u_t = u_hat_t + gains[t] z_t + k_scaled_t
    with z_t = [x_t - x_hat_t; x_s - x_hat_s for s in held[t]]; the
    controller's own nominal is not read.
    """
    n = plant.input_dim
    T = x_hat.shape[0] - 1
    xs = np.zeros((T + 1, plant.state_dim))
    us = np.zeros((T + 1, n))
    xs[0] = x_hat[0]
    for t in range(T + 1):
        z = np.concatenate([xs[s] - x_hat[s] for s in (t, *controller.held[t])])
        us[t] = u_hat[t] + (controller.gains[t] @ z + k_scaled[t * n:(t + 1) * n])
        if t < T:
            xs[t + 1] = plant.step(t, xs[t], us[t])
    return xs, us


def spectral_radius(M):
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def mc_expected_quadratic(A, a, Q, mu, Sigma, n_samples, rng):
    """Sample mean and standard error of (Ax + a)' Q (Ax + a), x ~ N(mu, Sigma)."""
    L = np.linalg.cholesky(Sigma)
    xs = mu + rng.standard_normal((n_samples, mu.size)) @ L.T
    ys = xs @ A.T + a
    vals = np.einsum("ij,jk,ik->i", ys, Q, ys)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def mc_expected_inner(A, a, B, b, mu, Sigma, n_samples, rng):
    """Sample mean and standard error of (Ax + a)' (Bx + b), x ~ N(mu, Sigma)."""
    L = np.linalg.cholesky(Sigma)
    xs = mu + rng.standard_normal((n_samples, mu.size)) @ L.T
    vals = np.einsum("ij,ij->i", xs @ A.T + a, xs @ B.T + b)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))
