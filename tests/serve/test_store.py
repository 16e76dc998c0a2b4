"""PolicyStore: batched decisions bit-identical to serial greedy actions."""

import numpy as np
import pytest

from repro.core.dqn import DQNAgent, DQNConfig
from repro.errors import ConfigurationError
from repro.nn.network import mlp
from repro.nn.serialize import save_parameters
from repro.serve import PolicyStore


def small_cfg(**kw):
    defaults = dict(observation_size=15, num_actions=160, hidden_sizes=(24, 24))
    defaults.update(kw)
    return DQNConfig(**defaults)


def store_of(policies=4):
    return PolicyStore([mlp(15, (24, 24), 160, seed=i) for i in range(policies)])


class TestBitIdentity:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_mixed_policies_match_serial(self, batch):
        store = store_of(4)
        rng = np.random.default_rng(batch)
        obs = rng.random((batch, store.observation_size))
        policies = rng.integers(0, store.num_policies, size=batch)
        batched = store.decide_batch(policies, obs)
        serial = np.array(
            [store.decide_serial(int(p), o) for p, o in zip(policies, obs)]
        )
        np.testing.assert_array_equal(batched, serial)

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_single_policy_broadcast_matches_serial(self, batch):
        store = store_of(1)
        rng = np.random.default_rng(batch + 100)
        obs = rng.random((batch, store.observation_size))
        batched = store.decide_batch(np.zeros(batch, dtype=int), obs)
        serial = np.array([store.decide_serial(0, o) for o in obs])
        np.testing.assert_array_equal(batched, serial)

    def test_matches_agent_greedy_act(self):
        agents = [DQNAgent(small_cfg(), seed=i) for i in range(3)]
        store = PolicyStore([agent.online for agent in agents])
        rng = np.random.default_rng(5)
        obs = rng.random((9, store.observation_size))
        policies = rng.integers(0, 3, size=9)
        batched = store.decide_batch(policies, obs)
        serial = np.array(
            [agents[int(p)].act(o, greedy=True) for p, o in zip(policies, obs)]
        )
        np.testing.assert_array_equal(batched, serial)

    def test_reflects_parameter_mutation(self):
        store = store_of(3)
        obs = np.tile(np.linspace(0, 1, store.observation_size), (3, 1))
        store.decide_batch(np.arange(3), obs)  # build + warm the stack
        donor = mlp(15, (24, 24), 160, seed=77)
        store.networks[1].set_weights(donor.get_weights())
        batched = store.decide_batch(np.arange(3), obs)
        serial = np.array([store.decide_serial(i, obs[i]) for i in range(3)])
        np.testing.assert_array_equal(batched, serial)


class TestValidation:
    def test_empty_store_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            PolicyStore([])

    def test_mismatched_geometry_names_policy(self):
        nets = [mlp(15, (24,), 160, seed=0), mlp(15, (32,), 160, seed=1)]
        with pytest.raises(ConfigurationError, match=r"policy\[1\]"):
            PolicyStore(nets)

    def test_bad_policy_index(self):
        store = store_of(2)
        with pytest.raises(ConfigurationError, match="policy index"):
            store.decide_serial(5, np.zeros(store.observation_size))
        with pytest.raises(ConfigurationError, match="policy indices"):
            store.decide_batch(np.array([0, 3]), np.zeros((2, store.observation_size)))

    def test_bad_observation_shape(self):
        store = store_of(2)
        with pytest.raises(ConfigurationError, match="observation"):
            store.decide_serial(0, np.zeros(4))
        with pytest.raises(ConfigurationError, match="observations"):
            store.decide_batch(np.array([0, 1]), np.zeros((2, 4)))


class TestArtifacts:
    def test_from_artifacts_roundtrip(self, tmp_path):
        nets = [mlp(15, (24, 24), 160, seed=i) for i in range(3)]
        paths = []
        for i, net in enumerate(nets):
            path = tmp_path / f"policy{i}.npz"
            save_parameters(net, path)
            paths.append(path)
        store = PolicyStore.from_artifacts(paths)
        assert store.num_policies == 3
        assert store.observation_size == 15
        assert store.num_actions == 160
        rng = np.random.default_rng(0)
        obs = rng.random((6, 15))
        policies = rng.integers(0, 3, size=6)
        batched = store.decide_batch(policies, obs)
        serial = np.array(
            [store.decide_serial(int(p), o) for p, o in zip(policies, obs)]
        )
        np.testing.assert_array_equal(batched, serial)

    def test_from_artifacts_mismatch_names_path(self, tmp_path):
        ok = tmp_path / "ok.npz"
        save_parameters(mlp(15, (24,), 160, seed=0), ok)
        bad = tmp_path / "wrong-geometry.npz"
        save_parameters(mlp(15, (32,), 160, seed=0), bad)
        with pytest.raises(ConfigurationError, match="wrong-geometry"):
            PolicyStore.from_artifacts([ok, bad])

    def test_from_artifacts_non_mlp_rejected(self, tmp_path):
        # a single Dense layer has no hidden layers: not the paper MLP
        from repro.nn.layers import Dense
        from repro.nn.network import Network

        path = tmp_path / "flat.npz"
        save_parameters(Network([Dense(4, 2, seed=0)]), path)
        with pytest.raises(ConfigurationError, match="MLP"):
            PolicyStore.from_artifacts([path])
