"""Stacked systems: structural residuals and noise models."""

import numpy as np
import numpy.testing as npt

from slsctrl import (
    BlockLowerTriangular,
    NoiseModel,
    TimeVaryingLinearSystem,
    achievability_residual,
    build_stacked,
    feedforward_residual,
)

from oracles import dense_stacked_maps


def test_residual_definitions():
    # the block-propagated residuals against their dense formulas on the
    # oracle's S_x and S_u, for achievable and non-achievable arguments
    rng = np.random.default_rng(5)
    T, m, n = 5, 2, 1
    A_list = [rng.normal(size=(m, m)) * 0.4 for _ in range(T + 1)]
    B_list = [rng.normal(size=(m, n)) for _ in range(T + 1)]
    st = build_stacked(TimeVaryingLinearSystem(A_list, B_list))
    S_x, S_u = dense_stacked_maps(A_list, B_list)
    N, M = S_x.shape[0], S_u.shape[1]

    def rel_gap(actual, expected):
        return abs(actual - expected) / expected

    # open-loop response is achievable by definition, and so is any causal
    # phi_u with phi_x = S_x + S_u phi_u
    zero_u = BlockLowerTriangular(np.zeros((M, N)), n, m)
    assert achievability_residual(st, S_x, zero_u) < 1e-14
    phi_u = BlockLowerTriangular(rng.normal(size=(M, N)), n, m)
    assert achievability_residual(st, S_x + S_u @ phi_u.dense, phi_u) < 1e-14
    # maps the dynamics cannot realize, causal or not, as arrays or blocks
    for phi_x, pu in [(BlockLowerTriangular(rng.normal(size=(N, N)), m, m), phi_u),
                      (np.tril(rng.normal(size=(N, N))), zero_u),
                      (S_x, rng.normal(size=(M, N)))]:
        px = phi_x.dense if isinstance(phi_x, BlockLowerTriangular) else phi_x
        pu_d = pu.dense if isinstance(pu, BlockLowerTriangular) else pu
        expected = np.linalg.norm(px - S_x - S_u @ pu_d) / max(1.0, np.linalg.norm(px))
        assert rel_gap(achievability_residual(st, phi_x, pu), expected) <= 1e-12
    # perturbing phi_x by eps in Frobenius norm gives eps / max(1, ||phi_x||_F)
    eps = 1e-3
    P = np.tril(rng.normal(size=(N, N)))
    P *= eps / np.linalg.norm(P)
    phi_x = BlockLowerTriangular(S_x + P, m, m)
    r = achievability_residual(st, phi_x, zero_u)
    npt.assert_allclose(r, eps / max(1.0, np.linalg.norm(phi_x.dense)), rtol=1e-10)
    # feedforward consistency: d_x = S_u d_u exactly, and an inconsistent d_x
    d_u = rng.normal(size=M)
    assert feedforward_residual(st, S_u @ d_u, d_u) < 1e-14
    d_x = S_u @ d_u + rng.normal(size=N)
    expected = np.linalg.norm(d_x - S_u @ d_u) / max(1.0, np.linalg.norm(d_x))
    assert rel_gap(feedforward_residual(st, d_x, d_u), expected) <= 1e-12


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
