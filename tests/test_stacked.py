"""Stacked systems: noise models."""

import numpy as np
import numpy.testing as npt

from slsctrl import NoiseModel


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
