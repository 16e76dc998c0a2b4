"""Tests for the sequential network, MLP factory and serialisation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    Network,
    mlp,
    parameter_count,
    save_parameters,
)
from repro.nn.serialize import (
    artifact_size_bytes,
    flatten_parameters,
    load_policy_bundle,
    unflatten_parameters,
)
from tests.oracles import training
from tests.oracles.training import Adam, HuberLoss


class TestNetwork:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Network([])

    def test_predict_1d_and_2d(self):
        net = mlp(4, (8,), 3, seed=0)
        single = net.predict(np.zeros(4))
        batch = net.predict(np.zeros((5, 4)))
        assert single.shape == (3,)
        assert batch.shape == (5, 3)
        np.testing.assert_allclose(batch[0], single)

    def test_deterministic_given_seed(self):
        a = mlp(4, (8,), 2, seed=42)
        b = mlp(4, (8,), 2, seed=42)
        x = np.ones(4)
        np.testing.assert_allclose(a.predict(x), b.predict(x))

    def test_different_seeds_differ(self):
        a = mlp(4, (8,), 2, seed=1)
        b = mlp(4, (8,), 2, seed=2)
        assert not np.allclose(a.predict(np.ones(4)), b.predict(np.ones(4)))

    def test_num_parameters(self):
        net = mlp(4, (8,), 2, seed=0)
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_paper_architecture_size(self):
        # I = 5, C = 16, P_L = 10, hidden 48x48: the deployable artifact is
        # in the ballpark the paper reports (10664 floats / 42.7 KB).
        net = mlp(15, (48, 48), 160, seed=0)
        assert net.num_parameters() == 10_960
        assert artifact_size_bytes(net) == 43_840

    def test_clone_is_independent(self):
        net = mlp(3, (4,), 2, seed=0)
        clone = net.clone()
        x = np.ones(3)
        np.testing.assert_allclose(clone.predict(x), net.predict(x))
        net.parameters[0][...] += 1.0
        assert not np.allclose(clone.predict(x), net.predict(x))

    def test_copy_weights_from(self):
        a = mlp(3, (4,), 2, seed=0)
        b = mlp(3, (4,), 2, seed=9)
        b.copy_weights_from(a)
        x = np.ones(3)
        np.testing.assert_allclose(a.predict(x), b.predict(x))

    def test_set_weights_validation(self):
        net = mlp(3, (4,), 2, seed=0)
        with pytest.raises(ConfigurationError):
            net.set_weights([np.zeros((3, 4))])
        weights = net.get_weights()
        weights[0] = np.zeros((5, 5))
        with pytest.raises(ConfigurationError):
            net.set_weights(weights)


class TestTraining:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(0)
        true_w = rng.standard_normal((3, 2))
        x = rng.standard_normal((256, 3))
        y = x @ true_w
        net = training.mlp(3, (32,), 2, seed=1)
        opt = Adam(learning_rate=1e-2)
        loss = HuberLoss()
        for _ in range(400):
            idx = rng.integers(0, 256, 32)
            net.train_step(x[idx], y[idx], loss, opt)
        final = loss.value(net.forward(x), y)
        assert final < 1e-2

    def test_learns_nonlinear_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (512, 1))
        y = np.abs(x)  # needs the ReLU nonlinearity
        net = training.mlp(1, (32, 32), 1, seed=2)
        opt = Adam(learning_rate=3e-3)
        loss = HuberLoss()
        for _ in range(800):
            idx = rng.integers(0, 512, 64)
            net.train_step(x[idx], y[idx], loss, opt)
        assert loss.value(net.forward(x), y) < 5e-3

    def test_grad_mask_restricts_updates(self):
        net = training.mlp(2, (8,), 3, seed=3)
        x = np.ones((1, 2))
        before = net.predict(np.ones(2)).copy()
        target = before.copy()[None, :]
        target[0, 1] += 10.0  # ask only output 1 to move
        mask = np.zeros((1, 3))
        mask[0, 1] = 1.0
        opt = Adam(learning_rate=0.05)
        for _ in range(200):
            net.train_step(x, target, HuberLoss(), opt, grad_mask=mask)
        after = net.predict(np.ones(2))
        assert abs(after[1] - target[0, 1]) < 0.5

    def test_grad_mask_shape_check(self):
        net = training.mlp(2, (4,), 2, seed=0)
        with pytest.raises(ConfigurationError):
            net.train_step(
                np.ones((1, 2)),
                np.ones((1, 2)),
                HuberLoss(),
                Adam(0.1),
                grad_mask=np.ones((2, 2)),
            )

    def test_mlp_factory_validation(self):
        with pytest.raises(ConfigurationError):
            mlp(0, (4,), 2)
        with pytest.raises(ConfigurationError):
            mlp(2, (), 2)


class TestSerialization:
    def test_flatten_roundtrip(self):
        net = mlp(5, (7,), 3, seed=4)
        flat = flatten_parameters(net)
        assert flat.size == parameter_count(net)
        other = mlp(5, (7,), 3, seed=5)
        unflatten_parameters(other, flat)
        x = np.ones(5)
        np.testing.assert_allclose(other.predict(x), net.predict(x), atol=1e-6)

    def test_save_load_file(self, tmp_path):
        net = mlp(4, (6,), 2, seed=6)
        path = tmp_path / "weights.npz"
        save_parameters(net, path)
        other = mlp(4, (6,), 2, seed=7)
        load_policy_bundle([path]).load_into(0, other)
        x = np.full(4, 0.5)
        np.testing.assert_allclose(other.predict(x), net.predict(x), atol=1e-6)

    def test_size_mismatch_rejected(self):
        net = mlp(4, (6,), 2, seed=0)
        with pytest.raises(ConfigurationError):
            unflatten_parameters(net, np.zeros(3))

    def test_float32_artifact(self):
        net = mlp(4, (6,), 2, seed=0)
        assert flatten_parameters(net).dtype == np.float32
