"""Tests for tabular Q-learning and the paper's DQN-vs-Q-learning argument."""

import numpy as np
import pytest

from repro.core.envs import SweepJammingEnv
from repro.core.mdp import AntiJammingMDP, MDPConfig
from repro.core.metrics import evaluate_policy
from repro.core.solver import value_iteration
from repro.errors import ConfigurationError, TrainingError
from tests.oracles.mdp import AnalyticJammingEnv
from tests.oracles.qlearning import (
    QLearningConfig,
    TabularQLearning,
    observation_table_size,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QLearningConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            QLearningConfig(epsilon=1.5)
        with pytest.raises(ConfigurationError):
            QLearningConfig(epsilon_decay=0.0)
        with pytest.raises(ConfigurationError):
            QLearningConfig(min_learning_rate=0.0)


class TestLearning:
    @pytest.fixture(scope="class")
    def trained(self):
        # Random jammer mode keeps every state reachable (against the
        # max-power jammer TJ never occurs, so its table row never updates).
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="random"))
        learner = TabularQLearning(
            mdp,
            QLearningConfig(min_learning_rate=0.05, min_epsilon=0.1),
            seed=0,
        )
        env = AnalyticJammingEnv(mdp, seed=1)
        learner.train(env, steps=120_000)
        return mdp, learner

    def test_learned_policy_is_near_optimal(self, trained):
        # On the oracle state space, model-free Q-learning recovers a
        # near-optimal policy (the paper's premise: DQN is only needed
        # because the deployed state is not observable). Exact argmax
        # equality is too strict for a sampled learner — instead every
        # learned action's exact Q-value must be within 3 % of V*.
        mdp, learner = trained
        solution = value_iteration(mdp)
        learned = learner.greedy_policy_map()
        for state in mdp.states:
            q_of_learned = solution.q_value(state, learned[state])
            v_star = solution.value(state)
            assert q_of_learned >= v_star - 0.03 * abs(v_star), (
                state,
                learned[state],
                q_of_learned,
                v_star,
            )

    def test_values_approach_optimal(self, trained):
        mdp, learner = trained
        solution = value_iteration(mdp)
        # Learned values approach V* (loose band: stochastic targets, lr floor).
        gap = learner.max_q_gap_to(solution.values)
        assert gap < 0.35 * float(np.abs(solution.values).max())

    def test_policy_scores_like_optimum(self, trained):
        mdp, learner = trained
        cfg = mdp.config
        metrics = evaluate_policy(
            SweepJammingEnv(cfg, seed=2), learner.policy(), slots=8000
        )
        assert metrics.success_rate > 0.6  # optimum scores ~0.7

    def test_td_errors_shrink(self, trained):
        _, learner = trained
        mdp2 = AntiJammingMDP(MDPConfig(jammer_mode="random"))
        fresh = TabularQLearning(mdp2, seed=3)
        env = AnalyticJammingEnv(mdp2, seed=4)
        errors = fresh.train(env, steps=30_000)
        assert errors[-2000:].mean() < errors[:2000].mean()

    def test_policy_requires_training(self):
        learner = TabularQLearning(AntiJammingMDP(), seed=0)
        with pytest.raises(TrainingError):
            learner.policy()

    def test_train_validation(self):
        learner = TabularQLearning(AntiJammingMDP(), seed=0)
        with pytest.raises(TrainingError):
            learner.train(AnalyticJammingEnv(seed=0), steps=0)

    def test_gap_size_check(self):
        learner = TabularQLearning(AntiJammingMDP(), seed=0)
        with pytest.raises(ConfigurationError):
            learner.max_q_gap_to(np.zeros(3))


class TestCurseOfDimensionality:
    """The paper's §III-C argument, made quantitative."""

    def test_oracle_table_is_tiny(self):
        mdp = AntiJammingMDP()
        assert mdp.num_states * mdp.num_actions == 100

    def test_observation_table_explodes(self):
        # A table over the deployed observation space at the paper's I = 5
        # would need ~2.5e13 rows — hence the DQN.
        assert observation_table_size(1) == 480
        assert observation_table_size(5) == 480**5
        assert observation_table_size(5) > 1e13

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            observation_table_size(0)
