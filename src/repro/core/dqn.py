"""Deep Q-Network agent (paper §III-C, Fig. 4).

Architecture: 3·I input neurons (success/fail, channel, power of the
previous I slots), two fully connected ReLU hidden layers, C·P_L output
neurons — one Q-value per (channel, power-level) action. Exploration is
ε-greedy: the best action with probability 1−ε, any other feasible action
with probability ε/(C·P_L − 1). Learning uses experience replay, the
Huber loss, Adam and a periodically synchronised target network; the
updates themselves run in :mod:`repro.core.vecenv`, which trains every
seed group, one seed included, as stacked tensor ops. An agent holds what
that trainer reads and writes back: its networks, replay buffer, rng
stream, counters and :class:`AdamState`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_DISCOUNT, DEFAULT_HIDDEN_WIDTH
from repro.core.replay import ReplayBuffer
from repro.errors import ConfigurationError
from repro.nn.network import Network, mlp
from repro.rng import SeedLike, derive, make_rng

#: Width of the Huber loss's quadratic region around each TD target.
HUBER_DELTA = 1.0


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linearly decaying exploration rate."""

    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ConfigurationError(
                f"need 0 <= end <= start <= 1, got start={self.start}, end={self.end}"
            )
        if self.decay_steps < 1:
            raise ConfigurationError("decay_steps must be positive")

    def value(self, step: int) -> float:
        if step < 0:
            raise ConfigurationError("step must be non-negative")
        frac = min(step / self.decay_steps, 1.0)
        return self.start + (self.end - self.start) * frac


@dataclass(frozen=True)
class DQNConfig:
    """Hyper-parameters of the agent."""

    observation_size: int
    num_actions: int
    hidden_sizes: tuple[int, ...] = (DEFAULT_HIDDEN_WIDTH, DEFAULT_HIDDEN_WIDTH)
    discount: float = DEFAULT_DISCOUNT
    learning_rate: float = 1e-3
    batch_size: int = 64
    replay_capacity: int = 20_000
    warmup_transitions: int = 500
    target_sync_interval: int = 250
    epsilon: EpsilonSchedule = EpsilonSchedule()
    #: Double DQN (van Hasselt et al.): select the bootstrap action with the
    #: online network, evaluate it with the target network. Curbs the
    #: max-operator overestimation bias.
    double_dqn: bool = False
    #: Polyak averaging coefficient for soft target updates
    #: (target <- tau * online + (1 - tau) * target every training step);
    #: ``None`` keeps the paper-style hard sync every
    #: ``target_sync_interval`` steps.
    soft_update_tau: float | None = None

    def __post_init__(self) -> None:
        if self.observation_size < 1 or self.num_actions < 2:
            raise ConfigurationError(
                "need a positive observation size and at least 2 actions"
            )
        if not 0.0 <= self.discount < 1.0:
            raise ConfigurationError("discount must lie in [0, 1)")
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning rate must be positive, got {self.learning_rate}"
            )
        if self.warmup_transitions < self.batch_size:
            raise ConfigurationError(
                "warmup must provide at least one full batch"
            )
        if self.warmup_transitions > self.replay_capacity:
            raise ConfigurationError(
                f"warmup_transitions ({self.warmup_transitions}) exceeds "
                f"replay_capacity ({self.replay_capacity}); the agent would never train"
            )
        if self.target_sync_interval < 1:
            raise ConfigurationError("target sync interval must be positive")
        if self.soft_update_tau is not None and not 0.0 < self.soft_update_tau <= 1.0:
            raise ConfigurationError("soft update tau must lie in (0, 1]")


@dataclass
class AdamState:
    """Adam's hyperparameters and moments (Kingma & Ba, 2015) for one network.

    The lock-step trainer keeps the moments in stacked buffers and writes
    them here when a seed's run ends: ``m``/``v`` are arrays aligned with
    ``network.parameters`` (``None`` until a step has run), ``t`` the step
    count.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: list[np.ndarray] | None = None
    v: list[np.ndarray] | None = None
    t: int = 0


class DQNAgent:
    """ε-greedy Q-learner over a NumPy MLP with target network and replay."""

    def __init__(self, config: DQNConfig, *, seed: SeedLike = None) -> None:
        self.config = config
        self._rng = make_rng(seed)
        self.online = mlp(
            config.observation_size,
            config.hidden_sizes,
            config.num_actions,
            seed=derive(seed, "dqn-online"),
        )
        self.target = self.online.clone()
        self.replay = ReplayBuffer(
            config.replay_capacity,
            config.observation_size,
            seed=derive(seed, "dqn-replay"),
        )
        self.adam = AdamState(learning_rate=config.learning_rate)
        self.train_steps = 0
        self.env_steps = 0

    # -- acting -------------------------------------------------------------------

    @property
    def epsilon(self) -> float:
        return self.config.epsilon.value(self.env_steps)

    def q_values(self, observation: np.ndarray) -> np.ndarray:
        """Online-network Q-values for one observation."""
        obs = np.asarray(observation, dtype=np.float64).reshape(-1)
        if obs.size != self.config.observation_size:
            raise ConfigurationError(
                f"observation of size {obs.size}; expected "
                f"{self.config.observation_size}"
            )
        return self.online.predict(obs)

    def act(self, observation: np.ndarray, *, greedy: bool = False) -> int:
        """Pick an action; ε-greedy unless ``greedy`` forces exploitation.

        Matches the paper's rule: the best action with probability 1−ε,
        every other action with probability ε/(C·P_L − 1).
        """
        best = int(np.argmax(self.q_values(observation)))
        if greedy or self._rng.random() >= self.epsilon:
            return best
        # Uniform over the num_actions - 1 non-best actions without
        # materialising them: indices >= best shift up by one.
        draw = int(self._rng.integers(self.config.num_actions - 1))
        return draw + (draw >= best)

    # -- persistence ----------------------------------------------------------------

    def sync_target(self) -> None:
        self.target.copy_weights_from(self.online)

    def network(self) -> Network:
        """The online network (e.g. for serialisation to the hub)."""
        return self.online


__all__ = [
    "HUBER_DELTA",
    "EpsilonSchedule",
    "DQNConfig",
    "AdamState",
    "DQNAgent",
]
