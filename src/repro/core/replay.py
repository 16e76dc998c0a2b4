"""Experience replay buffer for the DQN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class Batch:
    """A sampled mini-batch of transitions."""

    observations: np.ndarray  # (batch, obs_dim)
    actions: np.ndarray  # (batch,) int
    rewards: np.ndarray  # (batch,)
    next_observations: np.ndarray  # (batch, obs_dim)

    @property
    def size(self) -> int:
        return self.actions.size


class ReplayBuffer:
    """Fixed-capacity ring buffer of (o, a, r, o') transitions.

    The competition is a continuing task (no terminal states), so no done
    flags are stored.
    """

    def __init__(
        self, capacity: int, observation_size: int, *, seed: SeedLike = None
    ) -> None:
        if capacity < 1:
            raise TrainingError("replay capacity must be positive")
        if observation_size < 1:
            raise TrainingError("observation size must be positive")
        self.capacity = capacity
        self._obs = np.zeros((capacity, observation_size))
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._next_obs = np.zeros((capacity, observation_size))
        self._rng = make_rng(seed)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(
        self,
        observation: np.ndarray,
        action: int,
        reward: float,
        next_observation: np.ndarray,
    ) -> None:
        """Store one transition, evicting the oldest when full."""
        i = self._cursor
        self._obs[i] = observation
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_obs[i] = next_observation
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def push_many(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_observations: np.ndarray,
    ) -> None:
        """Bulk insert; leaves the exact state of pushing each row in order.

        The batched trainer uses this to flush warm-up transitions in one
        vectorised write instead of one :meth:`push` per slot. When more
        rows arrive than the buffer holds, only the trailing ``capacity``
        rows are written (the earlier ones would have been evicted anyway)
        — cursor and size land where sequential pushes would leave them.
        """
        obs = np.asarray(observations, dtype=np.float64)
        acts = np.asarray(actions, dtype=np.int64).reshape(-1)
        rews = np.asarray(rewards, dtype=np.float64).reshape(-1)
        nxt = np.asarray(next_observations, dtype=np.float64)
        n = acts.size
        if not (obs.shape[0] == n == rews.size == nxt.shape[0]):
            raise TrainingError(
                "push_many arrays disagree on the number of transitions"
            )
        if n and (
            obs.shape[1:] != self._obs.shape[1:]
            or nxt.shape[1:] != self._next_obs.shape[1:]
        ):
            raise TrainingError(
                f"observation rows of shape {obs.shape[1:]} do not match "
                f"the buffer's {self._obs.shape[1:]}"
            )
        if n == 0:
            return
        start = max(n - self.capacity, 0)
        idx = (self._cursor + np.arange(start, n)) % self.capacity
        self._obs[idx] = obs[start:]
        self._actions[idx] = acts[start:]
        self._rewards[idx] = rews[start:]
        self._next_obs[idx] = nxt[start:]
        self._cursor = int((self._cursor + n) % self.capacity)
        self._size = min(self._size + n, self.capacity)

    def sample(self, batch_size: int, *, allow_undersized: bool = False) -> Batch:
        """Sample ``batch_size`` transitions uniformly *with* replacement.

        Replacement is the classic DQN contract — duplicates within a batch
        are expected once the buffer is warm. Requesting more rows than the
        buffer holds, however, is almost always a warm-up bug (the batch
        would be mostly duplicates of a tiny population), so it raises
        unless ``allow_undersized=True``. :class:`repro.core.dqn.DQNConfig`
        enforces ``warmup_transitions >= batch_size``, so an agent that
        trains only after warm-up can never trip this guard.
        """
        if batch_size < 1:
            raise TrainingError("batch size must be positive")
        if self._size == 0:
            raise TrainingError("cannot sample from an empty replay buffer")
        if batch_size > self._size and not allow_undersized:
            raise TrainingError(
                f"sampling {batch_size} transitions from only {self._size} "
                "stored would mostly repeat them; raise warmup_transitions "
                "or pass allow_undersized=True"
            )
        idx = self._rng.integers(0, self._size, size=batch_size)
        # Fancy indexing already returns fresh copies.
        return Batch(
            observations=self._obs[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_observations=self._next_obs[idx],
        )

    def clear(self) -> None:
        self._size = 0
        self._cursor = 0


__all__ = ["Batch", "ReplayBuffer"]
