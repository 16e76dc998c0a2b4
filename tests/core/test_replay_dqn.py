"""Tests for the replay buffer and DQN agent."""

import numpy as np
import pytest

from repro.core.dqn import DQNAgent, DQNConfig, EpsilonSchedule
from repro.core.replay import ReplayBuffer
from repro.errors import ConfigurationError, TrainingError
from tests.oracles.training import SerialDQNAgent


class TestReplayBuffer:
    def test_push_and_len(self):
        buf = ReplayBuffer(10, 4, seed=0)
        assert len(buf) == 0
        buf.push(np.zeros(4), 1, -1.0, np.ones(4))
        assert len(buf) == 1

    def test_eviction_at_capacity(self):
        buf = ReplayBuffer(3, 1, seed=0)
        for i in range(5):
            buf.push(np.array([float(i)]), i, float(i), np.array([0.0]))
        assert len(buf) == buf.capacity == 3
        batch = buf.sample(64, allow_undersized=True)
        # Only the last three transitions remain.
        assert set(np.unique(batch.actions)).issubset({2, 3, 4})

    def test_sample_shapes(self):
        buf = ReplayBuffer(16, 5, seed=1)
        for i in range(8):
            buf.push(np.full(5, i), i, -float(i), np.full(5, i + 1))
        batch = buf.sample(4)
        assert batch.observations.shape == (4, 5)
        assert batch.actions.shape == (4,)
        assert batch.rewards.shape == (4,)
        assert batch.next_observations.shape == (4, 5)
        assert batch.size == 4

    def test_sample_contents_consistent(self):
        buf = ReplayBuffer(16, 1, seed=2)
        for i in range(10):
            buf.push(np.array([float(i)]), i, float(-i), np.array([float(i + 1)]))
        batch = buf.sample(32, allow_undersized=True)
        for obs, a, r, nxt in zip(
            batch.observations, batch.actions, batch.rewards, batch.next_observations
        ):
            assert obs[0] == a
            assert r == -a
            assert nxt[0] == a + 1

    def test_empty_sample_rejected(self):
        with pytest.raises(TrainingError):
            ReplayBuffer(4, 1).sample(1)

    def test_validation(self):
        with pytest.raises(TrainingError):
            ReplayBuffer(0, 1)
        with pytest.raises(TrainingError):
            ReplayBuffer(4, 0)
        buf = ReplayBuffer(4, 1)
        buf.push(np.zeros(1), 0, 0.0, np.zeros(1))
        with pytest.raises(TrainingError):
            buf.sample(0)

    def test_clear(self):
        buf = ReplayBuffer(4, 1, seed=0)
        buf.push(np.zeros(1), 0, 0.0, np.zeros(1))
        buf.clear()
        assert len(buf) == 0


class TestEpsilonSchedule:
    def test_linear_decay(self):
        sched = EpsilonSchedule(1.0, 0.1, 100)
        assert sched.value(0) == 1.0
        assert sched.value(50) == pytest.approx(0.55)
        assert sched.value(100) == pytest.approx(0.1)
        assert sched.value(10_000) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EpsilonSchedule(0.1, 0.5, 100)
        with pytest.raises(ConfigurationError):
            EpsilonSchedule(1.0, 0.1, 0)
        with pytest.raises(ConfigurationError):
            EpsilonSchedule().value(-1)


def small_config(**kw):
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


class TestDQNConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DQNConfig(observation_size=0, num_actions=4)
        with pytest.raises(ConfigurationError):
            DQNConfig(observation_size=4, num_actions=1)
        with pytest.raises(ConfigurationError):
            small_config(warmup_transitions=2, batch_size=8)
        with pytest.raises(ConfigurationError):
            small_config(discount=1.0)
        with pytest.raises(ConfigurationError):
            small_config(target_sync_interval=0)
        with pytest.raises(ConfigurationError, match="learning rate"):
            small_config(learning_rate=0.0)
        # A warm-up the buffer cannot hold would never let the agent train.
        with pytest.raises(
            ConfigurationError,
            match=r"warmup_transitions \(600\) exceeds replay_capacity \(500\)",
        ):
            small_config(warmup_transitions=600, replay_capacity=500)
        small_config(warmup_transitions=500, replay_capacity=500)


class TestDQNAgent:
    def test_q_values_shape(self):
        agent = DQNAgent(small_config(), seed=0)
        q = agent.q_values(np.zeros(6))
        assert q.shape == (4,)

    def test_observation_size_check(self):
        agent = DQNAgent(small_config(), seed=0)
        with pytest.raises(ConfigurationError):
            agent.q_values(np.zeros(5))

    def test_greedy_act_is_argmax(self):
        agent = DQNAgent(small_config(), seed=0)
        obs = np.ones(6) * 0.3
        assert agent.act(obs, greedy=True) == int(np.argmax(agent.q_values(obs)))

    def test_epsilon_exploration_spreads_actions(self):
        cfg = small_config(epsilon=EpsilonSchedule(1.0, 1.0, 10))
        agent = DQNAgent(cfg, seed=1)
        obs = np.zeros(6)
        best = int(np.argmax(agent.q_values(obs)))
        picks = {agent.act(obs) for _ in range(200)}
        # Under epsilon = 1 the greedy action is never chosen.
        assert best not in picks
        assert len(picks) == 3

    def test_observe_warms_up_then_trains(self):
        agent = SerialDQNAgent(small_config(), seed=2)
        obs = np.zeros(6)
        losses = []
        for i in range(20):
            loss = agent.observe(obs, i % 4, -1.0, obs)
            losses.append(loss)
        assert all(l is None for l in losses[:7])
        assert all(l is not None for l in losses[8:])
        assert agent.train_steps > 0

    def test_target_sync_happens(self):
        agent = SerialDQNAgent(small_config(target_sync_interval=5), seed=3)
        obs = np.zeros(6)
        for i in range(40):
            agent.observe(obs, i % 4, -1.0, obs)
        # After syncs, the target must equal the online network.
        agent.sync_target()
        x = np.ones(6)
        np.testing.assert_allclose(agent.target.predict(x), agent.online.predict(x))

    def test_learns_trivial_bandit(self):
        # One observation, action 2 pays 1, others pay 0: Q must rank it top.
        cfg = small_config(
            discount=0.0,
            epsilon=EpsilonSchedule(1.0, 1.0, 10),
            learning_rate=5e-3,
        )
        agent = SerialDQNAgent(cfg, seed=4)
        rng = np.random.default_rng(0)
        obs = np.zeros(6)
        for _ in range(600):
            a = int(rng.integers(4))
            agent.observe(obs, a, 1.0 if a == 2 else 0.0, obs)
        assert agent.act(obs, greedy=True) == 2

    def test_seeded_determinism(self):
        def run(seed):
            agent = SerialDQNAgent(small_config(), seed=seed)
            obs = np.arange(6) / 6
            out = []
            for i in range(30):
                a = agent.act(obs)
                agent.observe(obs, a, -0.1 * a, obs)
                out.append(a)
            return out

        assert run(9) == run(9)
