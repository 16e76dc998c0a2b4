"""Tests for the DQN extensions: Double DQN and soft target updates.

The agent-level cases step the serial chain of ``tests/oracles/training.py``;
the lock-step trainer is pinned bit-identical to it in ``test_vecenv.py``.
"""

import numpy as np
import pytest

from repro.core.dqn import DQNConfig, EpsilonSchedule
from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig, evaluate_dqn, train_dqn
from repro.errors import ConfigurationError
from tests.oracles.training import SerialDQNAgent


def cfg(**kw):
    defaults = dict(
        observation_size=6,
        num_actions=4,
        hidden_sizes=(16, 16),
        batch_size=8,
        warmup_transitions=8,
        replay_capacity=256,
        target_sync_interval=10,
    )
    defaults.update(kw)
    return DQNConfig(**defaults)


class TestConfigValidation:
    def test_tau_bounds(self):
        with pytest.raises(ConfigurationError):
            cfg(soft_update_tau=0.0)
        with pytest.raises(ConfigurationError):
            cfg(soft_update_tau=1.5)
        assert cfg(soft_update_tau=1.0).soft_update_tau == 1.0

    def test_defaults_off(self):
        c = cfg()
        assert not c.double_dqn
        assert c.soft_update_tau is None


class TestSoftUpdates:
    def test_tau_one_equals_hard_sync(self):
        agent = SerialDQNAgent(cfg(soft_update_tau=1.0), seed=0)
        obs = np.ones(6) * 0.5
        for i in range(12):
            agent.observe(obs, i % 4, -1.0, obs)
        np.testing.assert_allclose(
            agent.target.predict(obs), agent.online.predict(obs)
        )

    def test_small_tau_tracks_slowly(self):
        agent = SerialDQNAgent(cfg(soft_update_tau=0.01), seed=1)
        obs = np.ones(6) * 0.5
        before = agent.target.predict(obs).copy()
        for i in range(12):
            agent.observe(obs, i % 4, -1.0, obs)
        after = agent.target.predict(obs)
        online = agent.online.predict(obs)
        # The target moved, but remains between its start and the online net.
        assert not np.allclose(after, before)
        assert np.linalg.norm(after - online) > 0

    def test_hard_sync_not_used_with_tau(self):
        # With tau set, the interval-based hard sync must not fire: after
        # exactly target_sync_interval steps the target must NOT equal the
        # online network (tau is tiny).
        agent = SerialDQNAgent(
            cfg(soft_update_tau=1e-4, target_sync_interval=3), seed=2
        )
        obs = np.ones(6) * 0.5
        for i in range(15):
            agent.observe(obs, i % 4, -1.0, obs)
        assert not np.allclose(
            agent.target.predict(obs), agent.online.predict(obs)
        )


class TestDoubleDQN:
    def test_double_dqn_learns_bandit(self):
        config = cfg(
            double_dqn=True,
            discount=0.0,
            epsilon=EpsilonSchedule(1.0, 1.0, 10),
            learning_rate=5e-3,
        )
        agent = SerialDQNAgent(config, seed=3)
        rng = np.random.default_rng(0)
        obs = np.zeros(6)
        for _ in range(600):
            a = int(rng.integers(4))
            agent.observe(obs, a, 1.0 if a == 1 else 0.0, obs)
        assert agent.act(obs, greedy=True) == 1

    def test_double_dqn_reduces_overestimation(self):
        # In a zero-reward environment with noisy targets, vanilla DQN's
        # max operator biases Q upward; Double DQN's decoupled argmax
        # should produce smaller (less positive) values.
        def mean_q(double):
            config = cfg(
                double_dqn=double,
                discount=0.9,
                epsilon=EpsilonSchedule(1.0, 1.0, 10),
                learning_rate=1e-2,
            )
            agent = SerialDQNAgent(config, seed=4)
            rng = np.random.default_rng(1)
            for _ in range(800):
                obs = rng.random(6)
                nxt = rng.random(6)
                agent.observe(obs, int(rng.integers(4)), 0.0, nxt)
            probe = rng.random((64, 6))
            return float(agent.online.forward(probe).max(axis=1).mean())

        assert mean_q(True) <= mean_q(False) + 0.05

    def test_double_dqn_trains_on_environment(self):
        env_cfg = MDPConfig(jammer_mode="max")
        dqn = DQNConfig(
            observation_size=15,
            num_actions=160,
            hidden_sizes=(24, 24),
            batch_size=16,
            warmup_transitions=64,
            replay_capacity=4000,
            double_dqn=True,
            soft_update_tau=0.01,
            epsilon=EpsilonSchedule(1.0, 0.05, 5000),
        )
        res = train_dqn(
            env_cfg,
            trainer=TrainerConfig(episodes=30, steps_per_episode=250),
            dqn=dqn,
            seed=5,
        )
        metrics = evaluate_dqn(res.agent, env_cfg, slots=4000, seed=6)
        assert metrics.success_rate > 0.35
