"""Tests for the DQN training loop (small budgets — smoke-scale learning)."""

import numpy as np
import pytest

from repro.core.dqn import DQNAgent, DQNConfig, EpsilonSchedule
from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig, evaluate_dqn, train_dqn
from repro.errors import TrainingError


def tiny_dqn(env_obs=15, env_actions=160, **kw):
    defaults = dict(
        observation_size=env_obs,
        num_actions=env_actions,
        hidden_sizes=(24, 24),
        batch_size=16,
        warmup_transitions=64,
        replay_capacity=4000,
        epsilon=EpsilonSchedule(1.0, 0.1, 2000),
    )
    defaults.update(kw)
    return DQNConfig(**defaults)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            TrainerConfig(episodes=0)
        with pytest.raises(TrainingError):
            TrainerConfig(steps_per_episode=0)
        with pytest.raises(TrainingError):
            TrainerConfig(goal_window=0)
        with pytest.raises(TrainingError):
            TrainerConfig(reward_scale=0.0)


class TestTraining:
    def test_histories_have_episode_length(self):
        res = train_dqn(
            MDPConfig(),
            trainer=TrainerConfig(episodes=3, steps_per_episode=50),
            dqn=tiny_dqn(),
            seed=0,
        )
        assert res.episodes == 3
        assert res.reward_history.shape == (3,)
        assert res.loss_history.shape == (3,)
        assert res.steps == 150

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            train_dqn(
                MDPConfig(),
                trainer=TrainerConfig(episodes=1, steps_per_episode=10),
                dqn=tiny_dqn(env_obs=9),
                seed=0,
            )

    def test_reward_goal_early_stop(self):
        # A goal of -infinity-ish is reached immediately after goal_window.
        res = train_dqn(
            MDPConfig(),
            trainer=TrainerConfig(
                episodes=50, steps_per_episode=30, reward_goal=-1e9, goal_window=2
            ),
            dqn=tiny_dqn(),
            seed=1,
        )
        assert res.converged
        assert res.episodes == 2

    def test_deterministic_given_seed(self):
        kwargs = dict(
            trainer=TrainerConfig(episodes=2, steps_per_episode=40),
            dqn=tiny_dqn(),
        )
        a = train_dqn(MDPConfig(), seed=7, **kwargs)
        b = train_dqn(MDPConfig(), seed=7, **kwargs)
        np.testing.assert_allclose(a.reward_history, b.reward_history)

    def test_learning_improves_over_no_defense(self):
        # Even a short run must clear the "never act" floor (S_T ~ 0
        # against a camping max-power jammer).
        res = train_dqn(
            MDPConfig(jammer_mode="max"),
            trainer=TrainerConfig(episodes=30, steps_per_episode=250),
            dqn=tiny_dqn(epsilon=EpsilonSchedule(1.0, 0.05, 5000)),
            seed=3,
        )
        metrics = evaluate_dqn(res.agent, MDPConfig(jammer_mode="max"), slots=4000, seed=4)
        assert metrics.success_rate > 0.35

    def test_reward_history_trends_up(self):
        res = train_dqn(
            MDPConfig(jammer_mode="max"),
            trainer=TrainerConfig(episodes=30, steps_per_episode=250),
            dqn=tiny_dqn(epsilon=EpsilonSchedule(1.0, 0.05, 5000)),
            seed=5,
        )
        first = res.reward_history[:5].mean()
        last = res.reward_history[-5:].mean()
        assert last > first


class TestEvaluate:
    def test_slots_validated(self):
        res = train_dqn(
            MDPConfig(),
            trainer=TrainerConfig(episodes=1, steps_per_episode=80),
            dqn=tiny_dqn(),
            seed=0,
        )
        with pytest.raises(TrainingError):
            evaluate_dqn(res.agent, slots=0)

    def test_action_count_mismatch_rejected(self):
        # A 160-action agent on an MDP with 11 power levels (176 actions)
        # would decode its action indices with the wrong divmod.
        wide = MDPConfig(tx_power_levels=tuple(range(5, 16)))
        with pytest.raises(TrainingError, match="160 actions.*176"):
            evaluate_dqn(DQNAgent(tiny_dqn(), seed=0), wide, slots=10)

    def test_observation_mismatch_rejected(self):
        res = train_dqn(
            MDPConfig(),
            trainer=TrainerConfig(episodes=1, steps_per_episode=80),
            dqn=tiny_dqn(),
            seed=0,
        )
        with pytest.raises(TrainingError):
            evaluate_dqn(res.agent, history_length=7, slots=10)
