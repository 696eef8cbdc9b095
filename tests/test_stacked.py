"""Time-varying systems as two stacked arrays, and noise models."""

import numpy as np
import numpy.testing as npt
import pytest

from slsctrl import (
    CorrelationSpec,
    NoiseModel,
    TimeVaryingLinearSystem,
    add_correlation,
    build_stacked,
    build_viapoint_cost,
    solve_esls,
)


def _blocks(rng, T=6, m=3, n=2):
    return ([rng.normal(size=(m, m)) for _ in range(T + 1)],
            [rng.normal(size=(m, n)) for _ in range(T + 1)])


def test_lists_and_stacked_arrays_give_the_same_float_arrays():
    A_list, B_list = _blocks(np.random.default_rng(0))
    from_lists = TimeVaryingLinearSystem(A_list, B_list)
    from_arrays = TimeVaryingLinearSystem(np.stack(A_list), np.stack(B_list))
    for system in (from_lists, from_arrays):
        assert isinstance(system.A, np.ndarray) and system.A.dtype == float
        assert isinstance(system.B, np.ndarray) and system.B.dtype == float
        assert system.A.shape == (7, 3, 3) and system.B.shape == (7, 3, 2)
        assert (system.horizon, system.state_dim, system.input_dim) == (6, 3, 2)
        npt.assert_array_equal(system.A, np.stack(A_list))
        npt.assert_array_equal(system.B, np.stack(B_list))
    # integer blocks become floats; constant repeats one pair
    ints = TimeVaryingLinearSystem([[[1, 2], [3, 4]]] * 3, [[[5], [6]]] * 3)
    assert ints.A.dtype == float and ints.B.dtype == float
    constant = TimeVaryingLinearSystem.constant([[1, 2], [3, 4]], [[5], [6]], 2)
    npt.assert_array_equal(constant.A, ints.A)
    npt.assert_array_equal(constant.B, ints.B)


def test_misshaped_block_is_named_by_index():
    A_list, B_list = _blocks(np.random.default_rng(1))
    bad_A = A_list[:2] + [np.zeros((3, 2))] + A_list[3:]
    with pytest.raises(ValueError, match=r"A\[2\] has shape \(3, 2\), expected \(3, 3\)"):
        TimeVaryingLinearSystem(bad_A, B_list)
    bad_B = B_list[:4] + [np.zeros((2, 2))] + B_list[5:]
    with pytest.raises(ValueError, match=r"B\[4\] has shape \(2, 2\), expected \(3, 2\)"):
        TimeVaryingLinearSystem(A_list, bad_B)
    with pytest.raises(ValueError, match=r"A\[0\]"):
        TimeVaryingLinearSystem(np.zeros((7, 3, 2)), np.stack(B_list))


def test_unequal_lengths_and_empty_lists_raise():
    A_list, B_list = _blocks(np.random.default_rng(2))
    with pytest.raises(ValueError, match="same number of blocks"):
        TimeVaryingLinearSystem(A_list, B_list[:-1])
    with pytest.raises(ValueError, match="at least one block"):
        TimeVaryingLinearSystem([], [])


def test_build_stacked_returns_the_system():
    system = TimeVaryingLinearSystem(*_blocks(np.random.default_rng(3)))
    assert build_stacked(system) is system


def test_synthesis_is_bit_identical_on_lists_and_arrays():
    rng = np.random.default_rng(4)
    A_list, B_list = _blocks(rng, T=12)
    cost = build_viapoint_cost(12, [(5, rng.normal(size=3), 2.0), (12, rng.normal(size=3), 5.0)],
                               0.5, state_dim=3, input_dim=2)
    cost = add_correlation(cost, CorrelationSpec(3, 9, np.eye(3), rng.normal(size=3), np.eye(3)))
    responses = [solve_esls(TimeVaryingLinearSystem(A, B), cost)
                 for A, B in ((A_list, B_list), (np.stack(A_list), np.stack(B_list)))]
    assert any(responses[0].controller.held)
    for a, b in zip(*(r.controller.gains for r in responses), strict=True):
        npt.assert_array_equal(a, b)
    for name in ("k", "hessian_inv"):
        npt.assert_array_equal(*(getattr(r.controller, name) for r in responses))
    npt.assert_array_equal(responses[0].d_x, responses[1].d_x)
    npt.assert_array_equal(responses[0].d_u, responses[1].d_u)


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


def test_noise_model_rejects_nonfinite_parameters():
    # a NaN variance passes a "< 0" test; sample would return NaN disturbances
    for name in ("mu_x0", "sigma_x0", "sigma_noise"):
        for value in (np.nan, np.inf):
            args = dict(mu_x0=np.zeros(2), sigma_x0=np.zeros(2), sigma_noise=np.zeros(2))
            args[name] = np.array([0.0, value])
            with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
                NoiseModel(3, **args)


def test_noise_model_zero():
    noise = NoiseModel.zero(5, 3)
    assert np.all(noise.sample(np.random.default_rng(0)) == 0)
