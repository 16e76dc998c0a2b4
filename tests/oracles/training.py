"""The serial DQN training chain the lock-step trainer is held to.

``repro.core.vecenv.train_dqn_batch`` is the package's one training loop:
it trains every seed group, one seed included, as stacked tensor ops.
This module keeps the chain it replaced, one network at a time and in its
original op order: the per-seed loop (:func:`train_dqn`),
:meth:`SerialDQNAgent.observe`/:meth:`~SerialDQNAgent.train_on`,
:meth:`Network.train_step`/``backward``, the layers' forward caches,
gradient buffers and ``backward``, the Huber loss and ``Adam.step``. The
equivalence suites compare weights, target weights, Adam moments, rng and
replay state and histories against it bit for bit.

The classes extend the inference-only :mod:`repro.nn` ones, so a
:class:`Network` here runs the library's forward and bumps its
``version`` on every training step. :class:`Adam` keeps its moments in a
:class:`~repro.core.dqn.AdamState`, the record the lock-step trainer
writes back to an agent.
"""

from __future__ import annotations

import abc

import numpy as np

from repro import nn
from repro.core.dqn import HUBER_DELTA, AdamState, DQNAgent, DQNConfig
from repro.core.envs import SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.core.replay import Batch
from repro.core.trainer import TrainerConfig, TrainingResult
from repro.errors import ConfigurationError, TrainingError
from repro.rng import SeedLike, derive

# -- layers and network ----------------------------------------------------------


class Dense(nn.Dense):
    """:class:`repro.nn.Dense` with a forward cache, gradient buffers and ``backward``.

    The backward pass takes the gradient of the loss w.r.t. the layer's
    output and returns the gradient w.r.t. its input, accumulating the
    parameter gradients (cleared by the optimizer after each step).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        init: str = "he",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(in_features, out_features, init=init, seed=seed)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = super().forward(x)
        self._input = x
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ConfigurationError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.grad_weight += self._input.T @ grad_output
        self.grad_bias += grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    @property
    def gradients(self) -> list[np.ndarray]:
        """Accumulated gradients aligned with :attr:`parameters`."""
        return [self.grad_weight, self.grad_bias]


class ReLU(nn.ReLU):
    """:class:`repro.nn.ReLU` that caches its mask; the gradient is masked to zero."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return super().forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ConfigurationError("backward called before forward")
        return np.asarray(grad_output) * self._mask

    @property
    def gradients(self) -> list[np.ndarray]:
        return []


class Network(nn.Network):
    """:class:`repro.nn.Network` of trainable layers, with ``train_step``."""

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def train_step(
        self,
        x: np.ndarray,
        target: np.ndarray,
        loss: Loss,
        optimizer: Optimizer,
        *,
        grad_mask: np.ndarray | None = None,
    ) -> float:
        """One forward/backward/update step; returns the loss value.

        ``grad_mask`` (same shape as the output) zeroes gradient entries —
        the DQN uses it to update only the Q-value of the action taken.
        """
        prediction = self.forward(x)
        value = loss.value(prediction, target)
        grad = loss.gradient(prediction, target)
        if grad_mask is not None:
            mask = np.asarray(grad_mask, dtype=np.float64)
            if mask.shape != grad.shape:
                raise ConfigurationError(
                    f"grad mask shape {mask.shape} does not match output {grad.shape}"
                )
            grad = grad * mask
        self.backward(grad)
        optimizer.step(self.parameters, self.gradients)
        self.version += 1
        return value

    @property
    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients]


def trainable(network: nn.Network) -> Network:
    """A copy of ``network``, same layers and weights, that can train."""
    twin = Network(
        [
            Dense(layer.in_features, layer.out_features)
            if isinstance(layer, nn.Dense)
            else ReLU()
            for layer in network.layers
        ]
    )
    twin.set_weights(network.get_weights())
    return twin


def mlp(
    input_size: int,
    hidden_sizes: tuple[int, ...],
    output_size: int,
    *,
    seed: SeedLike = None,
) -> Network:
    """:func:`repro.nn.mlp`'s network (same seed, same weights), trainable."""
    return trainable(nn.mlp(input_size, hidden_sizes, output_size, seed=seed))


# -- loss ------------------------------------------------------------------------


def _check_shapes(
    prediction: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(prediction, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ConfigurationError(
            f"prediction shape {p.shape} does not match target shape {t.shape}"
        )
    if p.size == 0:
        raise ConfigurationError("cannot compute a loss over zero elements")
    return p, t


class Loss(abc.ABC):
    """A scalar loss with its gradient w.r.t. the prediction."""

    @abc.abstractmethod
    def value(self, prediction: np.ndarray, target: np.ndarray) -> float: ...

    @abc.abstractmethod
    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray: ...


class HuberLoss(Loss):
    """Huber (smooth-L1) loss — the standard DQN choice.

    Quadratic within ``delta`` of the target, linear outside, keeping
    bootstrapped TD errors from exploding gradients.
    """

    def __init__(self, delta: float = HUBER_DELTA) -> None:
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.delta = float(delta)

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        p, t = _check_shapes(prediction, target)
        err = p - t
        abs_err = np.abs(err)
        quad = np.minimum(abs_err, self.delta)
        return float(np.mean(0.5 * quad**2 + self.delta * (abs_err - quad)))

    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        p, t = _check_shapes(prediction, target)
        err = p - t
        return np.clip(err, -self.delta, self.delta) / p.size


# -- optimizer -------------------------------------------------------------------


class Optimizer(abc.ABC):
    """Updates parameters in place from their accumulated gradients."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning rate must be positive, got {learning_rate}"
            )
        self.learning_rate = float(learning_rate)

    @abc.abstractmethod
    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        """Apply one update; zeroes the gradients afterwards."""

    @staticmethod
    def _validate(parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        if len(parameters) != len(gradients):
            raise ConfigurationError(
                f"{len(parameters)} parameters but {len(gradients)} gradients"
            )
        for p, g in zip(parameters, gradients):
            if p.shape != g.shape:
                raise ConfigurationError(
                    f"parameter shape {p.shape} does not match gradient {g.shape}"
                )

    @staticmethod
    def _zero(gradients: list[np.ndarray]) -> None:
        for g in gradients:
            g[...] = 0.0


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction; moments in :attr:`state`."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("betas must lie in [0, 1)")
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.state = AdamState(self.learning_rate, beta1, beta2, epsilon)

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        self._validate(parameters, gradients)
        state = self.state
        if state.m is None:
            state.m = [np.zeros_like(p) for p in parameters]
            state.v = [np.zeros_like(p) for p in parameters]
        state.t += 1
        b1t = 1.0 - self.beta1**state.t
        b2t = 1.0 - self.beta2**state.t
        for p, g, m, v in zip(parameters, gradients, state.m, state.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)
        self._zero(gradients)


# -- agent and loop --------------------------------------------------------------


class SerialDQNAgent(DQNAgent):
    """A :class:`~repro.core.dqn.DQNAgent` that learns one transition at a time.

    Same seed streams as the library agent; its online network is the
    trainable copy and its ``adam`` record is its optimizer's state.
    """

    def __init__(self, config: DQNConfig, *, seed: SeedLike = None) -> None:
        super().__init__(config, seed=seed)
        self.online = trainable(self.online)
        self.optimizer = Adam(learning_rate=config.learning_rate)
        self.adam = self.optimizer.state
        self.loss = HuberLoss()

    def observe(
        self,
        observation: np.ndarray,
        action: int,
        reward: float,
        next_observation: np.ndarray,
    ) -> float | None:
        """Store a transition and (after warm-up) do one training step.

        Returns the training loss, or ``None`` while warming up.
        """
        self.replay.push(observation, action, reward, next_observation)
        self.env_steps += 1
        if len(self.replay) < self.config.warmup_transitions:
            return None
        return self.train_on(self.replay.sample(self.config.batch_size))

    def train_on(self, batch: Batch) -> float:
        """One TD(0) update on a batch; syncs the target net on schedule."""
        cfg = self.config
        next_q_target = self.target.forward(batch.next_observations)
        if cfg.double_dqn:
            next_q_online = self.online.forward(batch.next_observations)
            best_next = next_q_online.argmax(axis=1)
            bootstrap = next_q_target[np.arange(batch.size), best_next]
        else:
            bootstrap = next_q_target.max(axis=1)
        targets_for_actions = batch.rewards + cfg.discount * bootstrap

        prediction = self.online.forward(batch.observations)
        target = prediction.copy()
        rows = np.arange(batch.size)
        target[rows, batch.actions] = targets_for_actions
        mask = np.zeros_like(target)
        mask[rows, batch.actions] = 1.0

        value = self.online.train_step(
            batch.observations, target, self.loss, self.optimizer, grad_mask=mask
        )
        self.train_steps += 1
        if cfg.soft_update_tau is not None:
            tau = cfg.soft_update_tau
            for t_param, o_param in zip(self.target.parameters, self.online.parameters):
                t_param *= 1.0 - tau
                t_param += tau * o_param
        elif self.train_steps % cfg.target_sync_interval == 0:
            self.target.copy_weights_from(self.online)
        return value


def train_dqn(
    env_config: MDPConfig | None = None,
    *,
    trainer: TrainerConfig | None = None,
    dqn: DQNConfig | None = None,
    history_length: int = 5,
    seed: SeedLike = None,
) -> TrainingResult:
    """One seed's training run, one environment step and one update at a time.

    Seeded like :func:`repro.core.trainer.train_dqn`; writes no trace or
    telemetry.
    """
    env_config = env_config or MDPConfig()
    trainer = trainer or TrainerConfig()
    env = SweepJammingEnv(
        env_config, history_length=history_length, seed=derive(seed, "train-env")
    )
    if dqn is None:
        dqn = DQNConfig(
            observation_size=env.observation_size,
            num_actions=env.num_actions,
        )
    elif (
        dqn.observation_size != env.observation_size
        or dqn.num_actions != env.num_actions
    ):
        raise TrainingError(
            "DQN geometry does not match the environment: expected "
            f"obs={env.observation_size}, actions={env.num_actions}"
        )
    agent = SerialDQNAgent(dqn, seed=derive(seed, "train-agent"))

    rewards: list[float] = []
    losses: list[float] = []
    converged = False
    steps = 0
    episodes_run = 0
    for _ in range(trainer.episodes):
        episodes_run += 1
        obs = env.reset()
        ep_reward = 0.0
        ep_losses: list[float] = []
        for _ in range(trainer.steps_per_episode):
            action = agent.act(obs)
            next_obs, reward, _ = env.step_index(action)
            loss = agent.observe(obs, action, reward * trainer.reward_scale, next_obs)
            if loss is not None:
                ep_losses.append(loss)
            obs = next_obs
            ep_reward += reward
            steps += 1
        rewards.append(ep_reward / trainer.steps_per_episode)
        losses.append(float(np.mean(ep_losses)) if ep_losses else float("nan"))
        if trainer.reward_goal is not None and len(rewards) >= trainer.goal_window:
            window = rewards[-trainer.goal_window :]
            if float(np.mean(window)) >= trainer.reward_goal:
                converged = True
                break
    agent.sync_target()
    return TrainingResult(
        agent=agent,
        steps=steps,
        episodes=episodes_run,
        converged=converged,
        reward_history=np.array(rewards),
        loss_history=np.array(losses),
    )
