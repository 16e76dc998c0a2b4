"""Tests for DQN-vs-DQN self-play (the learning jammer's training loop)."""

import numpy as np
import pytest

from repro.core.mdp import J, MDPConfig
from repro.core.selfplay import SelfPlayConfig, SelfPlayEnv, train_selfplay
from repro.errors import ConfigurationError


def _tiny() -> SelfPlayConfig:
    return SelfPlayConfig(pairs=2, episodes=2, steps_per_episode=40)


class TestSelfPlayEnv:
    def test_reset_returns_both_observations(self):
        env = SelfPlayEnv(seed=0)
        victim_obs, jammer_obs = env.reset()
        assert victim_obs.shape == (env.observation_size,)
        assert jammer_obs.shape == (env.memory.observation_size,)
        assert env.num_blocks == 4

    def test_commanded_hit_rewards_the_jammer(self):
        env = SelfPlayEnv(MDPConfig(jammer_mode="max"), seed=0)
        env.reset()
        stay = env.env.channel_power_to_action(0, 0)
        block = env._puppet.blocks.index(
            next(b for b in env._puppet.blocks if 0 in b)
        )
        _, _, _, jammer_reward, info = env.step(stay, block)
        assert info.jam_attempted and info.state == J
        assert jammer_reward == SelfPlayEnv.JAM_REWARD

    def test_commanded_miss_earns_nothing(self):
        env = SelfPlayEnv(MDPConfig(jammer_mode="max"), seed=0)
        env.reset()
        stay = env.env.channel_power_to_action(0, 0)
        miss = env._puppet.blocks.index(
            next(b for b in env._puppet.blocks if 0 not in b)
        )
        _, _, _, jammer_reward, info = env.step(stay, miss)
        assert not info.jam_attempted
        assert jammer_reward == 0.0

    def test_jammer_observation_tracks_the_attack(self):
        env = SelfPlayEnv(seed=0)
        _, before = env.reset()
        _, after, _, _, _ = env.step(env.env.channel_power_to_action(0, 0), 0)
        assert not np.array_equal(before, after)

    def test_block_range_validated(self):
        env = SelfPlayEnv(seed=0)
        env.reset()
        with pytest.raises(ConfigurationError):
            env.step(0, env.num_blocks)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SelfPlayConfig(pairs=0)
        with pytest.raises(ConfigurationError):
            SelfPlayConfig(episodes=0)
        assert _tiny().total_steps == 80


class TestTrainSelfplay:
    def test_shapes(self):
        result = train_selfplay(_tiny(), seed=3)
        assert result.jam_rates.shape == (2, 2)
        assert result.victim_returns.shape == (2, 2)
        assert result.jammer_returns.shape == (2, 2)
        assert len(result.victim_agents) == len(result.jammer_agents) == 2
        assert np.all(result.jam_rates >= 0.0)
        assert np.all(result.jam_rates <= 1.0)

    def test_deterministic_in_seed(self):
        first = train_selfplay(_tiny(), seed=3)
        second = train_selfplay(_tiny(), seed=3)
        np.testing.assert_array_equal(first.jam_rates, second.jam_rates)
        np.testing.assert_array_equal(
            first.victim_returns, second.victim_returns
        )
        np.testing.assert_array_equal(
            first.jammer_returns, second.jammer_returns
        )
        assert first.best_pair == second.best_pair

    def test_best_pair_maximises_tail_jam_rate(self):
        result = train_selfplay(_tiny(), seed=5)
        tail = max(1, result.jam_rates.shape[1] // 4)
        expected = int(result.jam_rates[:, -tail:].mean(axis=1).argmax())
        assert result.best_pair == expected
        assert result.best_jammer is result.jammer_agents[expected]

    def test_best_jammer_deploys_in_the_slot_env(self):
        from repro.core.envs import SweepJammingEnv
        from tests.oracles.adversary import make_slot_jammer_factory

        result = train_selfplay(
            SelfPlayConfig(pairs=1, episodes=1, steps_per_episode=40), seed=7
        )
        env = SweepJammingEnv(
            seed=0,
            jammer_factory=make_slot_jammer_factory(
                "learning", agent=result.best_jammer
            ),
        )
        actions = np.random.default_rng(1)
        infos = [
            env.step_index(int(actions.integers(env.num_actions)))[2]
            for _ in range(60)
        ]
        assert len(infos) == 60  # deployment runs end-to-end
