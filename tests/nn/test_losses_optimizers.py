"""Tests for the reference Huber loss and Adam optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from tests.oracles.training import Adam, HuberLoss


class TestHuber:
    def test_quadratic_inside_delta(self):
        loss = HuberLoss(delta=1.0)
        p, t = np.array([[0.5]]), np.array([[0.0]])
        assert loss.value(p, t) == pytest.approx(0.125)

    def test_linear_outside_delta(self):
        loss = HuberLoss(delta=1.0)
        p, t = np.array([[3.0]]), np.array([[0.0]])
        # 0.5 * 1^2 + 1 * (3 - 1) = 2.5
        assert loss.value(p, t) == pytest.approx(2.5)

    def test_gradient_clipped(self):
        loss = HuberLoss(delta=1.0)
        g = loss.gradient(np.array([[10.0]]), np.array([[0.0]]))
        assert g[0, 0] == pytest.approx(1.0)

    def test_bad_delta(self):
        with pytest.raises(ConfigurationError):
            HuberLoss(delta=0.0)

    def test_zero_at_target(self):
        t = np.ones((2, 3))
        assert HuberLoss().value(t, t) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            HuberLoss().value(np.zeros((1, 2)), np.zeros((2, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            HuberLoss().value(np.zeros((0,)), np.zeros((0,)))

    @given(st.floats(-4, 4))
    @settings(max_examples=25)
    def test_gradient_is_numerical_derivative(self, p):
        loss = HuberLoss(delta=1.0)
        pa, ta = np.array([[p]]), np.array([[0.0]])
        eps = 1e-6
        num = (loss.value(pa + eps, ta) - loss.value(pa - eps, ta)) / (2 * eps)
        assert loss.gradient(pa, ta)[0, 0] == pytest.approx(num, abs=1e-4)


class TestAdam:
    def test_descends_quadratic(self):
        x = np.array([5.0])
        opt = Adam(learning_rate=0.1)
        for _ in range(300):
            opt.step([x], [np.array([2 * x[0]])])
        assert abs(x[0]) < 1e-2

    def test_handles_sparse_scales(self):
        # Adam equalises very differently scaled gradients.
        x = np.array([1.0, 1.0])
        opt = Adam(learning_rate=0.05)
        for _ in range(400):
            g = np.array([2e-4 * x[0], 2e4 * x[1]])
            opt.step([x], [g])
        assert abs(x[0]) < 0.2 and abs(x[1]) < 0.2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Adam(beta1=1.0)
        with pytest.raises(ConfigurationError):
            Adam(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            Adam(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            Adam(0.1).step([np.zeros(2)], [np.zeros(3)])
        with pytest.raises(ConfigurationError):
            Adam(0.1).step([np.zeros(2)], [])

    def test_zeroes_gradients(self):
        x, g = np.array([1.0]), np.array([1.0])
        Adam(0.1).step([x], [g])
        assert g[0] == 0.0
