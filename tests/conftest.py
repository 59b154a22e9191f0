"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import mlmc_euler as me


@pytest.fixture
def split_noise_gbm():
    """GBM with d = 1 and q = 2: dX = mu X dt + X (s1 dW1 + s2 dW2), X0 = 1, T = 1.

    mu = 0.05, s1 = 0.12 and s2 = 0.16.  Its law is that of scalar GBM with
    vol sqrt(s1**2 + s2**2) = 0.2, so the scalar closed forms hold, while
    every array has a noise axis of length 2.
    """
    mu, s1, s2 = 0.05, 0.12, 0.16
    cols = np.array([s1, s2])

    def constant(value):
        return lambda x: np.full(x.shape[:-1] + (1, 1), value)

    return me.SdeModel(
        dim_state=1,
        dim_noise=2,
        initial=np.array([1.0]),
        horizon=1.0,
        drift=lambda x: mu * x,
        diffusion=lambda x: x[..., None] * cols,
        drift_jacobian=constant(mu),
        diffusion_jacobians=(constant(s1), constant(s2)),
    )
