"""Stacked-system operators: block storage, causal maps, residuals."""

import numpy as np
import numpy.testing as npt
import pytest

from slsctrl import (
    BlockLowerTriangular,
    NoiseModel,
    TimeVaryingLinearSystem,
    achievability_residual,
    build_stacked,
    feedforward_residual,
)

from oracles import dense_stacked_maps


def test_blt_block_round_trip():
    rng = np.random.default_rng(0)
    M = BlockLowerTriangular.zeros(4, 2, 3)
    ref = {}
    for i in range(4):
        for j in range(i + 1):
            blk = rng.normal(size=(2, 3))
            M.set_block(i, j, blk)
            ref[i, j] = blk
    for (i, j), blk in ref.items():
        npt.assert_array_equal(M.block(i, j), blk)
    # everything above the block diagonal stays structurally zero
    assert np.all(M.dense[0:2, 3:] == 0)
    with pytest.raises(ValueError):
        M.set_block(0, 1, np.ones((2, 3)))


def test_blt_strict_rejects_diagonal():
    M = BlockLowerTriangular.zeros(3, 2, 2, strict=True)
    with pytest.raises(ValueError):
        M.set_block(1, 1, np.eye(2))
    M.set_block(2, 1, np.eye(2))  # below the diagonal is fine


def test_blt_matmul_matches_dense():
    rng = np.random.default_rng(1)
    A = BlockLowerTriangular(np.tril(rng.normal(size=(8, 8))), 2, 2)
    B = BlockLowerTriangular(np.tril(rng.normal(size=(8, 8))), 2, 2)
    C = A @ B
    npt.assert_allclose(C.dense, A.dense @ B.dense, atol=1e-13)
    v = rng.normal(size=8)
    npt.assert_allclose(A @ v, A.dense @ v, atol=1e-13)


def test_stacked_scalar_unit_system():
    # T=1, A=B=[1]: S_x has unit diagonal and unit subdiagonal, S_u carries
    # the single delayed input block.
    sys1 = TimeVaryingLinearSystem.constant(np.array([[1.0]]), np.array([[1.0]]), 1)
    st = build_stacked(sys1)
    npt.assert_allclose(st.S_x.block(0, 0), [[1.0]])
    npt.assert_allclose(st.S_x.block(1, 1), [[1.0]])
    npt.assert_allclose(st.S_x.block(1, 0), [[1.0]])
    npt.assert_allclose(st.S_u.block(1, 0), [[1.0]])
    assert np.all(st.S_u.dense[0] == 0)
    assert np.all(st.S_u.dense[:, 1] == 0)


def test_stacked_double_integrator_blocks():
    # frozen values, cross-checked against the dense-inversion oracle below
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    sys2 = TimeVaryingLinearSystem.constant(A, B, 2)
    st = build_stacked(sys2)
    npt.assert_allclose(st.S_u.block(1, 0), [[0.0], [0.1]])
    npt.assert_allclose(st.S_u.block(2, 0), [[0.01], [0.1]])
    npt.assert_allclose(st.S_u.block(2, 1), [[0.0], [0.1]])
    S_x_ref, S_u_ref = dense_stacked_maps([A] * 3, [B] * 3)
    npt.assert_allclose(st.S_x.dense, S_x_ref, atol=1e-12)
    npt.assert_allclose(st.S_u.dense, S_u_ref, atol=1e-12)


def test_stacked_random_vs_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        T = int(rng.integers(1, 8))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        A_list = [rng.normal(size=(m, m)) for _ in range(T + 1)]
        B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
        st = build_stacked(TimeVaryingLinearSystem(A_list, B_list))
        S_x_ref, S_u_ref = dense_stacked_maps(A_list, B_list)
        npt.assert_allclose(st.S_x.dense, S_x_ref, atol=1e-9)
        npt.assert_allclose(st.S_u.dense, S_u_ref, atol=1e-9)


def test_stacked_zero_dynamics():
    # A_t = 0 makes the system nilpotent of order 1: S_x = I, S_u = Z B_d
    m, n, T = 3, 2, 4
    rng = np.random.default_rng(3)
    A_list = [np.zeros((m, m))] * (T + 1)
    B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
    st = build_stacked(TimeVaryingLinearSystem(A_list, B_list))
    npt.assert_allclose(st.S_x.dense, np.eye((T + 1) * m), atol=1e-14)
    for t in range(T):
        npt.assert_allclose(st.S_u.block(t + 1, t), B_list[t], atol=1e-14)
    for i in range(T + 1):
        for j in range(i):
            if i != j + 1:
                assert np.all(st.S_u.block(i, j) == 0)


def test_residual_definitions():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2, 2)) * 0.4
    B = rng.normal(size=(2, 1))
    st = build_stacked(TimeVaryingLinearSystem.constant(A, B, 3))
    N = st.S_x.shape[0]
    # open-loop response is achievable by definition
    zero_u = BlockLowerTriangular.zeros(4, 1, 2)
    assert achievability_residual(st, st.S_x, zero_u) < 1e-14
    # perturbing phi_x by eps in Frobenius norm gives eps / max(1, ||phi_x||_F)
    eps = 1e-3
    P = np.tril(rng.normal(size=(N, N)))
    P *= eps / np.linalg.norm(P)
    phi_x = BlockLowerTriangular(st.S_x.dense + P, 2, 2)
    r = achievability_residual(st, phi_x, zero_u)
    npt.assert_allclose(r, eps / max(1.0, np.linalg.norm(phi_x.dense)), rtol=1e-10)
    # feedforward consistency: d_x = S_u d_u exactly
    d_u = rng.normal(size=st.S_u.shape[1])
    assert feedforward_residual(st, st.S_u @ d_u, d_u) < 1e-14


def test_noise_model_sampling():
    noise = NoiseModel(3, mu_x0=np.array([1.0, 0.0]),
                       sigma_x0=np.array([0.04, 0.0]),
                       sigma_noise=np.array([0.0, 1e-4]))
    w1 = noise.sample(np.random.default_rng(7))
    w2 = noise.sample(np.random.default_rng(7))
    npt.assert_array_equal(w1, w2)
    assert w1.shape == (8,)
    # coordinates with zero variance are deterministic
    assert w1[1] == 0.0
    assert w1[2] == 0.0 and w1[4] == 0.0 and w1[6] == 0.0
    samples = np.array([noise.sample(np.random.default_rng(s))[0] for s in range(2000)])
    npt.assert_allclose(samples.mean(), 1.0, atol=0.02)
    npt.assert_allclose(samples.std(), 0.2, atol=0.02)


def test_noise_model_zero():
    noise = NoiseModel.zero(5, 3)
    assert np.all(noise.sample(np.random.default_rng(0)) == 0)
