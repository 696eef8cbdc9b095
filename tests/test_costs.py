"""Quadratic tracking costs: viapoints, correlations, state cost functions."""

import numpy as np
import numpy.testing as npt
import pytest

from slsctrl import (
    CorrelationSpec,
    CostSpec,
    StateCostFunction,
    add_correlation,
    build_viapoint_cost,
    evaluate_trajectory_cost,
    expected_inner,
    expected_quadratic,
    joint_limit_violation,
    joint_limit_violation_jacobian,
)

from dense_views import dense_q
from oracles import (
    dense_tracking_pieces,
    fd_gradient,
    fd_hessian,
    fd_jacobian,
    mc_expected_inner,
    mc_expected_quadratic,
)


def test_empty_cost():
    cost = build_viapoint_cost(5, [], 1.0, state_dim=2, input_dim=1)
    assert cost.Q == {}
    npt.assert_array_equal(cost.x_d, np.zeros(12))
    xs = np.random.default_rng(0).normal(size=(6, 2))
    assert evaluate_trajectory_cost(cost, xs, np.zeros((6, 1))) == 0.0


def test_exact_reach_costs_nothing():
    T, m = 4, 3
    g = np.array([0.3, -0.2, 1.0])
    cost = build_viapoint_cost(T, [(T, g, np.eye(m))], 1.0, state_dim=m, input_dim=2)
    xs = np.zeros((T + 1, m))
    xs[T] = g
    assert evaluate_trajectory_cost(cost, xs, np.zeros((T + 1, 2))) < 1e-30


def test_duplicate_viapoint_targets():
    g = np.array([1.0, 2.0])
    # same target twice accumulates weight; conflicting targets are an error
    cost = build_viapoint_cost(3, [(1, g, 1.0), (1, g, 2.0)], 1.0, state_dim=2)
    npt.assert_allclose(cost.q_block(1, 1), 3.0 * np.eye(2))
    with pytest.raises(ValueError):
        build_viapoint_cost(3, [(1, g, 1.0), (1, -g, 1.0)], 1.0, state_dim=2)


def test_control_weight_validated_once(monkeypatch):
    for w in (0.0, -1.0, [1.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]):
        with pytest.raises(ValueError, match="not positive definite"):
            build_viapoint_cost(3, [], w, state_dim=2, input_dim=2)
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
    cost = build_viapoint_cost(50, [], W, state_dim=2)
    # every step shares the weight, so one factorization validates all of R
    assert len(calls) == 1
    npt.assert_array_equal(cost.R, np.broadcast_to(W, (51, 2, 2)))


def _weight_table():
    """(label, weight, dim) around the symmetry tolerance of the cost's weights."""
    L = np.random.default_rng(11).normal(size=(3, 3))
    S = L @ L.T

    def changed(i, j, value):
        w = S.copy()
        w[i, j] = value
        return w

    inf = changed(0, 1, np.inf)
    inf[1, 0] = np.inf
    return [("exactly symmetric", S, 3),
            ("1e-13 absolute asymmetry", changed(0, 1, S[0, 1] + 1e-13), 3),
            ("1e-6 relative asymmetry", changed(0, 1, S[0, 1] * (1 + 1e-6)), 3),
            ("1e-3 relative asymmetry", changed(0, 1, S[0, 1] * (1 + 1e-3)), 3),
            ("NaN entry", changed(2, 2, np.nan), 3),
            ("symmetric inf entries", inf, 3),
            # the scalar and diagonal forms: 0 * inf is NaN off the diagonal
            ("NaN scalar", np.nan, 3), ("inf scalar", np.inf, 3),
            ("inf scalar, dim 1", np.inf, 1),
            ("NaN in a diagonal", [1.0, np.nan, 2.0], 3),
            ("inf in a diagonal", [1.0, np.inf, 2.0], 3)]


def _allclose_accepts(w, dim):
    """Whether np.allclose(W, W.T, atol=1e-12) holds for the full weight W of w."""
    w = np.asarray(w, float)
    with np.errstate(invalid="ignore"):
        full = np.eye(dim) * float(w) if w.ndim == 0 else (np.diag(w) if w.ndim == 1 else w)
    return np.allclose(full, full.T, atol=1e-12)


def test_symmetry_checks_accept_exactly_what_allclose_accepts():
    answers = {}
    for label, w, dim in _weight_table():
        expected = answers[label] = _allclose_accepts(w, dim)
        with np.errstate(invalid="ignore"):
            try:
                CostSpec._as_weight(w, dim)
                accepted = True
            except ValueError as exc:
                assert str(exc) == "weight matrix must be symmetric"
                accepted = False
        assert accepted == expected, label
        if np.ndim(w) == 2:
            try:
                CorrelationSpec(0, 1, np.eye(dim), np.zeros(dim), w)
                accepted = True
            except ValueError as exc:
                assert str(exc) == "Q_c must be symmetric"
                accepted = False
            assert accepted == expected, label
    # the table has both accepted and rejected weights
    assert answers["1e-6 relative asymmetry"] and answers["symmetric inf entries"]
    assert not answers["1e-3 relative asymmetry"] and not answers["NaN entry"]
    assert not answers["NaN scalar"] and answers["inf scalar, dim 1"]


def test_correlation_copies_own_their_arrays():
    C = np.asfortranarray(np.arange(9.0).reshape(3, 3))
    corr = CorrelationSpec(1, 3, C, np.ones(3), np.eye(3))
    for copy in (corr.copy(), add_correlation(CostSpec(4, 3, 1, 1.0), corr).correlations[0],
                 add_correlation(CostSpec(4, 3, 1, 1.0), corr).copy().correlations[0]):
        assert type(copy) is CorrelationSpec and (copy.t1, copy.t2) == (1, 3)
        for name in ("C", "c", "Q_c"):
            a, b = getattr(corr, name), getattr(copy, name)
            npt.assert_array_equal(a, b)
            assert not np.shares_memory(a, b)
            # the memory order is kept, as copy.deepcopy keeps it
            assert a.flags.f_contiguous == b.flags.f_contiguous
    copy = corr.copy()
    copy.C[0, 0] = -1.0
    assert corr.C[0, 0] == 0.0


def test_correlation_zero_cases():
    m = 3
    corr = CorrelationSpec(0, 2, np.eye(m), np.zeros(m), np.eye(m))
    cost = CostSpec(3, m, 1, control_weight=1.0)
    cost = add_correlation(cost, corr)
    rng = np.random.default_rng(1)
    v = rng.normal(size=m)
    xs = np.zeros((4, m))
    xs[0] = v
    xs[2] = v
    assert abs(evaluate_trajectory_cost(cost, xs, np.zeros((4, 1)))) < 1e-24
    # unit difference costs exactly one
    xs[0] = np.array([1.0, 0.0, 0.0])
    xs[2] = 0.0
    npt.assert_allclose(evaluate_trajectory_cost(cost, xs, np.zeros((4, 1))), 1.0,
                        rtol=1e-12)


def test_correlation_random_vs_direct_formula():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        T = int(rng.integers(2, 6))
        t1 = int(rng.integers(0, T))
        t2 = int(rng.integers(t1 + 1, T + 1))
        C = rng.normal(size=(m, m))
        c = rng.normal(size=m)
        L = rng.normal(size=(m, m))
        Q_c = L @ L.T
        corr = CorrelationSpec(t1, t2, C, c, Q_c)
        cost = CostSpec(T, m, 1)
        cost.R[:] = np.eye(1)
        cost = add_correlation(cost, corr)
        xs = rng.normal(size=(T + 1, m))
        packaged = evaluate_trajectory_cost(cost, xs, np.zeros((T + 1, 1)))
        direct = corr.evaluate(xs[t1], xs[t2])
        npt.assert_allclose(packaged, direct, rtol=1e-10, atol=1e-10)


def test_correlation_with_existing_viapoint_matches_dense_oracle():
    # overlapping targets: the assembled quadratic must equal the dense
    # assembly built from scratch, up to the documented additive constant
    rng = np.random.default_rng(3)
    T, m, n = 6, 2, 1
    g1 = rng.normal(size=m)
    g2 = rng.normal(size=m)
    vps = [(2, g1, 2.0), (5, g2, np.diag([3.0, 0.5]))]
    cost = build_viapoint_cost(T, vps, 0.7, state_dim=m, input_dim=n)
    C = rng.normal(size=(m, m))
    c = rng.normal(size=m)
    Q_c = np.eye(m) * 1.5
    cost = add_correlation(cost, CorrelationSpec(2, 5, C, c, Q_c))
    Qd, bd, Rd, _ = dense_tracking_pieces(
        T, m, n, viapoints=[(2, g1, 2.0), (5, g2, np.diag([3.0, 0.5]))],
        correlations=[(2, 5, C, c, Q_c)], control_weight=0.7)
    npt.assert_allclose(dense_q(cost), Qd, atol=1e-12)
    npt.assert_allclose(cost.linear_term, bd, atol=1e-12)
    # quadratic + linear parts agree, so costs of two trajectories differ
    # by the same amount under both assemblies
    xs_a = rng.normal(size=(T + 1, m))
    xs_b = rng.normal(size=(T + 1, m))
    us = np.zeros((T + 1, n))
    gap_pkg = (evaluate_trajectory_cost(cost, xs_a, us)
               - evaluate_trajectory_cost(cost, xs_b, us))
    def dense_cost(xs):
        x = xs.ravel()
        return x @ Qd @ x - 2 * bd @ x
    npt.assert_allclose(gap_pkg, dense_cost(xs_a) - dense_cost(xs_b), rtol=1e-9)


def test_mirrored_offdiagonal_storage():
    m = 2
    cost = CostSpec(4, m, 1)
    cost = add_correlation(cost, CorrelationSpec(1, 3, np.eye(m), np.zeros(m), np.eye(m)))
    npt.assert_allclose(cost.q_block(1, 3), cost.q_block(3, 1).T)
    Q = dense_q(cost)
    npt.assert_allclose(Q, Q.T, atol=0)


def test_evaluate_unit_norm_and_dense_oracle():
    T, m, n = 3, 2, 1
    # unit deviation under identity state weights costs exactly 1 (inputs at
    # zero contribute nothing regardless of R)
    cost = build_viapoint_cost(T, [(t, np.zeros(m), 1.0) for t in range(T + 1)],
                               1.0, state_dim=m, input_dim=n)
    xs = np.zeros((T + 1, m))
    xs[1, 0] = 1.0
    npt.assert_allclose(evaluate_trajectory_cost(cost, xs, np.zeros((T + 1, n))), 1.0)

    rng = np.random.default_rng(4)
    for _ in range(10):
        T = int(rng.integers(4, 21))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        # viapoints on interior times, correlation endpoints kept fresh so the
        # assembled quadratic reproduces the raw sum constants included
        vps = [(int(t), rng.normal(size=m), float(rng.uniform(0.1, 3)))
               for t in rng.choice(np.arange(2, T), size=3, replace=False)]
        L = rng.normal(size=(m, m))
        corrs = [(0, T, rng.normal(size=(m, m)), rng.normal(size=m), L @ L.T)]
        cost = build_viapoint_cost(T, vps, 0.9, state_dim=m, input_dim=n)
        for t1, t2, C, c, Qc in corrs:
            cost = add_correlation(cost, CorrelationSpec(t1, t2, C, c, Qc))
        xs = rng.normal(size=(T + 1, m))
        us = rng.normal(size=(T + 1, n))
        direct = sum(float((xs[t] - g) @ (np.eye(m) * w if np.ndim(w) == 0 else w)
                           @ (xs[t] - g)) for t, g, w in vps)
        for t1, t2, C, c, Qc in corrs:
            e = C @ xs[t1] + c - xs[t2]
            direct += float(e @ Qc @ e)
        direct += float(np.einsum("ti,ij,tj->", us, np.eye(n) * 0.9, us))
        npt.assert_allclose(evaluate_trajectory_cost(cost, xs, us), direct,
                            rtol=1e-9)


def test_cumulative_cost_consistency():
    rng = np.random.default_rng(5)
    T, m, n = 8, 2, 1
    vps = [(3, rng.normal(size=m), 1.5), (8, rng.normal(size=m), 2.0)]
    cost = build_viapoint_cost(T, vps, 0.3, state_dim=m, input_dim=n)
    cost = add_correlation(cost, CorrelationSpec(
        3, 7, np.eye(m), rng.normal(size=m), np.eye(m)))
    xs = rng.normal(size=(T + 1, m))
    us = rng.normal(size=(T + 1, n))
    # running decomposition books cross-time terms when both endpoints are
    # realized, so the last entry recovers the total (steps may go negative)
    running = cost.cumulative_cost(xs, us)
    assert running.shape == (T + 1,)
    npt.assert_allclose(running[-1], evaluate_trajectory_cost(cost, xs, us),
                        rtol=1e-12)


def test_diagonal_projection_drops_cross_terms():
    rng = np.random.default_rng(6)
    T, m = 5, 2
    cost = build_viapoint_cost(T, [(5, rng.normal(size=m), 4.0)], 1.0,
                               state_dim=m, input_dim=1)
    cost = add_correlation(cost, CorrelationSpec(1, 4, np.eye(m), np.zeros(m), np.eye(m)))
    proj = cost.diagonal_projection()
    for (i, j) in proj.Q:
        assert i == j
    # diagonal contributions of the correlation survive the projection
    npt.assert_allclose(proj.q_block(1, 1), np.eye(m))
    npt.assert_allclose(proj.q_block(4, 4), np.eye(m))
    # the projected cost keeps the derived targets: Q x_d matches the
    # retained linear term blockwise
    Qd = dense_q(proj)
    npt.assert_allclose(Qd @ proj.x_d, proj.linear_term, atol=1e-10)


def test_refresh_targets_solves_linear_term():
    # x_d always satisfies Q x_d = linear term, also with correlations
    rng = np.random.default_rng(7)
    T, m = 6, 3
    cost = build_viapoint_cost(T, [(2, rng.normal(size=m), 1.0)], 1.0,
                               state_dim=m, input_dim=1)
    cost = add_correlation(cost, CorrelationSpec(
        2, 5, rng.normal(size=(m, m)), rng.normal(size=m), np.eye(m)))
    Q = dense_q(cost)
    npt.assert_allclose(Q @ cost.x_d, cost.linear_term, atol=1e-9)


def test_state_cost_fd_fallbacks_match_analytic():
    # squared distance to a sine curve: smooth, nonconvex far from the curve
    def f(t, x):
        return float((x[1] - np.sin(x[0])) ** 2 + 0.1 * x[0] ** 2)

    def grad(t, x):
        r = x[1] - np.sin(x[0])
        return np.array([-2 * r * np.cos(x[0]) + 0.2 * x[0], 2 * r])

    analytic = StateCostFunction(f, gradient=grad)
    fallback = StateCostFunction(f)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        g_ref = fd_gradient(lambda z: f(0, z), x)
        scale = max(1.0, np.max(np.abs(g_ref)))
        assert np.max(np.abs(analytic.gradient(0, x) - g_ref)) / scale < 1e-4
        assert np.max(np.abs(fallback.gradient(0, x) - g_ref)) / scale < 1e-4
        H_ref = fd_hessian(lambda z: f(0, z), x)
        scale = max(1.0, np.max(np.abs(H_ref)))
        assert np.max(np.abs(analytic.hessian(0, x) - H_ref)) / scale < 1e-4
        assert np.max(np.abs(fallback.hessian(0, x) - H_ref)) / scale < 1e-4


def test_batched_state_cost_methods_equal_the_per_step_calls():
    # keypoint quadratics with a duplicate t (weights accumulate) and one at
    # the horizon, which the shorter stacks do not reach; a callable cost on
    # the finite-difference fallbacks
    rng = np.random.default_rng(14)
    T, m = 9, 3
    g = rng.normal(size=m)
    keypoints = StateCostFunction.quadratic_viapoints(
        T, [(2, g, [1.0, 2.0, 0.0]), (5, rng.normal(size=m), 3.0),
            (2, g, np.diag([0.5, 0.0, 4.0])),
            (T, rng.normal(size=m), 1e3)], m)
    a = rng.normal(size=m)
    fallback = StateCostFunction(lambda t, x: float(np.cos(a @ x) + (t + 1) * x @ x))
    for cost in (keypoints, fallback):
        for N in (T + 1, 6, 3):
            xs = rng.normal(size=(N, m))
            for batched, per_step in ((cost.values, cost.value),
                                      (cost.gradients, cost.gradient),
                                      (cost.hessians, cost.hessian)):
                ref = np.array([per_step(t, xs[t]) for t in range(N)])
                got = batched(xs)
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()
    # only the keypoint steps of a stack are nonzero
    xs = rng.normal(size=(T + 1, m))
    assert np.flatnonzero(keypoints.values(xs)).tolist() == [2, 5, T]
    assert np.flatnonzero(keypoints.hessians(xs).any(axis=(1, 2))).tolist() == [2, 5, T]


def test_joint_limit_hinge_values():
    lower = np.array([-1.0, -1.0])
    upper = np.array([2.0, 0.5])
    npt.assert_array_equal(joint_limit_violation(np.array([0.0, 0.0]), lower, upper),
                           np.zeros(2))
    v = joint_limit_violation(np.array([2.1, -1.2]), lower, upper)
    npt.assert_allclose(v, [0.1 ** 2, 0.2 ** 2])
    # jacobian matches finite differences away from the kinks
    rng = np.random.default_rng(10)
    for _ in range(50):
        th = rng.uniform(-2, 3, size=2)
        if np.any(np.abs(th - lower) < 1e-3) or np.any(np.abs(th - upper) < 1e-3):
            continue
        J = joint_limit_violation_jacobian(th, lower, upper)
        J_ref = fd_jacobian(lambda z: joint_limit_violation(z, lower, upper), th)
        # elementwise hinge: derivative vector against the FD diagonal
        npt.assert_allclose(J, np.diag(J_ref), atol=1e-6)
        npt.assert_allclose(J_ref - np.diag(np.diag(J_ref)), 0.0, atol=1e-9)


def test_expectation_identities_against_monte_carlo():
    rng = np.random.default_rng(11)
    d, k = 3, 2
    A = rng.normal(size=(k, d))
    a = rng.normal(size=k)
    B = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    Lq = rng.normal(size=(k, k))
    Q = Lq @ Lq.T
    mu = rng.normal(size=d)
    Ls = rng.normal(size=(d, d))
    Sigma = Ls @ Ls.T + 0.5 * np.eye(d)

    closed = expected_quadratic(A, a, Q, mu, Sigma)
    est, se = mc_expected_quadratic(A, a, Q, mu, Sigma, 100_000, rng)
    assert abs(closed - est) < 3 * se

    closed = expected_inner(A, a, B, b, mu, Sigma)
    est, se = mc_expected_inner(A, a, B, b, mu, Sigma, 100_000, rng)
    assert abs(closed - est) < 3 * se
