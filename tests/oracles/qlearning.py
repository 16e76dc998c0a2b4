"""Tabular Q-learning — the baseline the paper's DQN replaces.

Paper §III-C: "Compared with other RL techniques (such as Q-learning), the
learning speed of DQN will not suffer from the curse of high-
dimensionality." On the *exact* MDP state space (5 states for the default
geometry) tabular Q-learning is perfectly adequate and converges to the
value-iteration optimum — this module implements it both to validate the
solvers against a model-free learner and to make the paper's argument
concrete: the table works only because the oracle state is observable,
whereas the deployed system sees the 3·I-dimensional history the DQN
consumes (a table over that space is the curse the paper avoids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mdp import Action, AntiJammingMDP, State
from repro.errors import ConfigurationError, TrainingError
from repro.rng import SeedLike, make_rng
from tests.oracles.mdp import AnalyticJammingEnv


@dataclass(frozen=True)
class QLearningConfig:
    """Hyper-parameters of the tabular learner."""

    learning_rate: float = 0.1
    learning_rate_decay: float = 0.9999
    min_learning_rate: float = 0.01
    epsilon: float = 0.2
    epsilon_decay: float = 0.9995
    min_epsilon: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigurationError("learning rate must lie in (0, 1]")
        if not 0.0 < self.learning_rate_decay <= 1.0:
            raise ConfigurationError("learning rate decay must lie in (0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError("epsilon must lie in [0, 1]")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ConfigurationError("epsilon decay must lie in (0, 1]")
        if self.min_learning_rate <= 0 or self.min_epsilon < 0:
            raise ConfigurationError("floors must be non-negative (lr > 0)")


class TabularQLearning:
    """Model-free Q-learning over the MDP's oracle state space."""

    def __init__(
        self,
        mdp: AntiJammingMDP,
        config: QLearningConfig | None = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        self.mdp = mdp
        self.config = config or QLearningConfig()
        self._rng = make_rng(seed)
        self.q = np.zeros((mdp.num_states, mdp.num_actions))
        self._lr = self.config.learning_rate
        self._eps = self.config.epsilon
        self.updates = 0

    # -- acting -----------------------------------------------------------------

    def act(self, state: State, *, greedy: bool = False) -> Action:
        if not greedy and self._rng.random() < self._eps:
            return self.mdp.actions[int(self._rng.integers(self.mdp.num_actions))]
        row = self.q[self.mdp.state_index(state)]
        return self.mdp.actions[int(np.argmax(row))]

    # -- learning ---------------------------------------------------------------

    def update(
        self, state: State, action: Action, reward: float, next_state: State
    ) -> float:
        """One TD(0) backup; returns the absolute TD error."""
        cfg = self.config
        si = self.mdp.state_index(state)
        ai = self.mdp.action_index(action)
        ni = self.mdp.state_index(next_state)
        target = reward + self.mdp.config.discount * self.q[ni].max()
        td = target - self.q[si, ai]
        self.q[si, ai] += self._lr * td
        self._lr = max(self._lr * cfg.learning_rate_decay, cfg.min_learning_rate)
        self._eps = max(self._eps * cfg.epsilon_decay, cfg.min_epsilon)
        self.updates += 1
        return abs(float(td))

    def train(self, env: AnalyticJammingEnv, steps: int) -> np.ndarray:
        """Interact with ``env`` for ``steps`` slots; returns TD errors."""
        if steps < 1:
            raise TrainingError("steps must be positive")
        errors = np.empty(steps)
        for t in range(steps):
            state = env.state
            action = self.act(state)
            next_state, reward, _ = env.step(action)
            errors[t] = self.update(state, action, reward, next_state)
        return errors

    # -- introspection ------------------------------------------------------------

    def greedy_policy_map(self) -> dict[State, Action]:
        return {x: self.act(x, greedy=True) for x in self.mdp.states}

    def policy(self) -> "TabularQPolicy":
        return TabularQPolicy(self)

    def max_q_gap_to(self, values: np.ndarray) -> float:
        """Sup-norm gap between the learned state values and a reference."""
        learned = self.q.max(axis=1)
        ref = np.asarray(values, dtype=np.float64).ravel()
        if ref.size != learned.size:
            raise ConfigurationError("reference values have the wrong size")
        return float(np.max(np.abs(learned - ref)))


class TabularQPolicy:
    """Greedy policy view over a trained table (Policy protocol)."""

    def __init__(self, learner: TabularQLearning) -> None:
        if learner.updates == 0:
            raise TrainingError("refusing to freeze an untrained table")
        self._learner = learner

    def action(self, state: State) -> Action:
        return self._learner.act(state, greedy=True)


def observation_table_size(
    history_length: int, outcome_levels: int = 3, channels: int = 16, powers: int = 10
) -> int:
    """Table rows a *history-observation* learner would need.

    The deployed victim cannot observe the oracle MDP state; it sees the
    last I slots' (outcome, channel, power). A tabular method over that
    observation space needs (3·16·10)^I rows — the curse of dimensionality
    the paper's DQN sidesteps (≈ 2.5e13 rows at the paper's I = 5).
    """
    if history_length < 1:
        raise ConfigurationError("history length must be >= 1")
    return (outcome_levels * channels * powers) ** history_length
