"""Tests for network layers, and numerical gradient checks of the
reference backward passes in ``tests/oracles/training.py``."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Dense, ReLU
from tests.oracles import training


def numerical_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 7, seed=0)
        assert layer.forward(np.zeros((3, 4))).shape == (3, 7)

    def test_linearity(self):
        layer = Dense(5, 2, seed=1)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        np.testing.assert_allclose(
            layer.forward(x + y) + layer.bias,
            layer.forward(x) + layer.forward(y),
            atol=1e-12,
        )

    def test_bad_input_shape(self):
        with pytest.raises(ConfigurationError):
            Dense(4, 2).forward(np.zeros((3, 5)))

    def test_bad_dims(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 2)

    def test_unknown_init(self):
        with pytest.raises(ConfigurationError):
            Dense(4, 2, init="magic")

    def test_backward_before_forward(self):
        with pytest.raises(ConfigurationError):
            training.Dense(4, 2).backward(np.zeros((1, 2)))

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        layer = training.Dense(4, 3, seed=3)
        x = rng.standard_normal((5, 4))
        w_target = rng.standard_normal((5, 3))

        def loss():
            out = x @ layer.weight + layer.bias
            return 0.5 * np.sum((out - w_target) ** 2)

        layer.forward(x)
        out = x @ layer.weight + layer.bias
        layer.backward(out - w_target)
        num = numerical_gradient(loss, layer.weight)
        np.testing.assert_allclose(layer.grad_weight, num, atol=1e-5)

    def test_bias_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        layer = training.Dense(3, 2, seed=5)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))

        def loss():
            out = x @ layer.weight + layer.bias
            return 0.5 * np.sum((out - target) ** 2)

        layer.forward(x)
        layer.backward((x @ layer.weight + layer.bias) - target)
        num = numerical_gradient(loss, layer.bias)
        np.testing.assert_allclose(layer.grad_bias, num, atol=1e-5)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(6)
        layer = training.Dense(3, 2, seed=7)
        x = rng.standard_normal((2, 3))
        target = rng.standard_normal((2, 2))

        def loss():
            out = x @ layer.weight + layer.bias
            return 0.5 * np.sum((out - target) ** 2)

        layer.forward(x)
        grad_in = layer.backward((x @ layer.weight + layer.bias) - target)
        num = numerical_gradient(loss, x)
        np.testing.assert_allclose(grad_in, num, atol=1e-5)

    def test_gradients_accumulate(self):
        layer = training.Dense(2, 2, seed=8)
        x = np.ones((1, 2))
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        first = layer.grad_weight.copy()
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        np.testing.assert_allclose(layer.grad_weight, 2 * first)

    def test_he_scale(self):
        rng_layers = [Dense(1000, 10, seed=s) for s in range(3)]
        stds = [l.weight.std() for l in rng_layers]
        expected = np.sqrt(2.0 / 1000)
        for s in stds:
            assert s == pytest.approx(expected, rel=0.15)


class TestReLU:
    def test_forward_clips_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.0, 2.0]]

    def test_backward_masks(self):
        layer = training.ReLU()
        layer.forward(np.array([[-1.0, 3.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert grad.tolist() == [[0.0, 5.0]]

    def test_backward_before_forward(self):
        with pytest.raises(ConfigurationError):
            training.ReLU().backward(np.zeros((1, 2)))

    def test_no_parameters(self):
        assert ReLU().parameters == []
        assert training.ReLU().gradients == []
