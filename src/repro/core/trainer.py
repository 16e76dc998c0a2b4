"""DQN training and evaluation for the anti-jamming environment.

Mirrors the paper's procedure (§IV-B): train on historical interaction
blocks (channel, power level, success/failure), stop when the running
average reward reaches a threshold or the step budget runs out, then freeze
the network and deploy it greedily. The loop itself is the lock-step
trainer of :mod:`repro.core.vecenv`; :func:`train_dqn` runs it for one
seed and :func:`train_dqn_multi_seed` fans seed groups out over a pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dqn import DQNAgent, DQNConfig
from repro.core.envs import SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.core.metrics import MetricSummary, SlotLog
from repro.core.vecenv import _train_batch_task, resolve_env_batch, train_dqn_batch
from repro.errors import TrainingError
from repro.exec import FaultPolicy, ParallelRunner, TaskFailure
from repro.obs import trace as obs_trace
from repro.rng import SeedLike, derive


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of a training run."""

    agent: DQNAgent
    steps: int
    episodes: int
    converged: bool
    reward_history: np.ndarray  # mean reward per episode
    loss_history: np.ndarray  # mean TD loss per episode (nan during warmup)


@dataclass(frozen=True)
class TrainerConfig:
    """Training-loop knobs."""

    episodes: int = 100
    steps_per_episode: int = 400
    #: Stop early when the mean episode reward reaches this value
    #: ("unless the training goal has been achieved in advance").
    reward_goal: float | None = None
    #: Episodes the running average is taken over for the goal test.
    goal_window: int = 5
    #: Rewards are multiplied by this before entering the replay buffer.
    #: The raw Eq. (5) losses reach -(L_p + L_H + L_J) ~ -165; scaling keeps
    #: TD targets inside the Huber loss's quadratic region. Reported reward
    #: histories stay in raw units.
    reward_scale: float = 0.01

    def __post_init__(self) -> None:
        if self.episodes < 1 or self.steps_per_episode < 1:
            raise TrainingError("episodes and steps_per_episode must be positive")
        if self.goal_window < 1:
            raise TrainingError("goal window must be positive")
        if self.reward_scale <= 0:
            raise TrainingError("reward scale must be positive")


def train_dqn(
    env_config: MDPConfig | None = None,
    *,
    trainer: TrainerConfig | None = None,
    dqn: DQNConfig | None = None,
    history_length: int = 5,
    seed: int,
) -> TrainingResult:
    """Train a DQN against the mechanistic sweep jammer.

    One seed's run of the lock-step trainer,
    :func:`repro.core.vecenv.train_dqn_batch`; the seed derives the
    environment and agent streams.
    """
    return train_dqn_batch(
        env_config,
        seeds=[seed],
        trainer=trainer,
        dqn=dqn,
        history_length=history_length,
    )[0]


@dataclass(frozen=True)
class MultiSeedResult:
    """Per-seed training runs plus cross-seed aggregates.

    ``seeds`` and ``results`` are aligned and hold only the runs that
    completed; seeds lost under ``on_error="skip"`` are recorded in
    ``failures`` as :class:`repro.exec.TaskFailure` sentinels.
    """

    seeds: tuple[int, ...]
    results: tuple[TrainingResult, ...]
    failures: tuple[TaskFailure, ...] = ()

    @property
    def final_rewards(self) -> np.ndarray:
        """Last-episode mean reward of each seed's run."""
        return np.array([r.reward_history[-1] for r in self.results])

    @property
    def mean_final_reward(self) -> float:
        return float(self.final_rewards.mean())

    @property
    def std_final_reward(self) -> float:
        return float(self.final_rewards.std())

    def best(self) -> TrainingResult:
        """The run with the highest final-episode reward."""
        return self.results[int(np.argmax(self.final_rewards))]


def train_dqn_multi_seed(
    env_config: MDPConfig | None = None,
    *,
    seeds=(0, 1, 2, 3),
    trainer: TrainerConfig | None = None,
    dqn: DQNConfig | None = None,
    history_length: int = 5,
    workers: int | str | None = None,
    policy: FaultPolicy | None = None,
    env_batch: int | str | None = None,
) -> MultiSeedResult:
    """Train one DQN per seed, fanning the runs out over a process pool.

    Each run is fully determined by its own seed (environment and agent
    streams both derive from it), so results are identical for any
    ``workers`` setting — ``REPRO_WORKERS=1`` runs the tasks in process,
    and a retried run reproduces a first-try run exactly.

    ``env_batch`` (default: the ``REPRO_ENV_BATCH`` knob) only decides how
    the seeds split into pool tasks: each task trains up to that many
    seeds lock-step through :func:`repro.core.vecenv.train_dqn_batch`,
    amortising network forward/backward passes across its group, and every
    split gives the same per-seed results as :func:`train_dqn` — so the
    process pool and the in-process batch compose (processes × batch).
    ``1`` or ``"off"`` makes one pool task per seed.

    ``policy`` (default: the ``REPRO_ON_ERROR``/``REPRO_MAX_RETRIES``
    environment) governs worker faults: with ``on_error="skip"`` the runs
    that crashed permanently are dropped from ``seeds``/``results`` and
    reported in :attr:`MultiSeedResult.failures` instead of sinking the
    surviving seeds; all seeds failing raises :class:`TrainingError`.
    Under batching a crash costs the whole ``env_batch`` group, since the
    group shares one pool task.
    """
    seed_list = tuple(int(s) for s in seeds)
    if not seed_list:
        raise TrainingError("need at least one seed")
    batch = resolve_env_batch(env_batch)
    runner = ParallelRunner(workers, name="train_dqn_multi_seed.map", policy=policy)
    chunks = [seed_list[i : i + batch] for i in range(0, len(seed_list), batch)]
    raw = runner.map(
        _train_batch_task,
        [(env_config, trainer, dqn, history_length, c) for c in chunks],
    )
    failures = tuple(r for r in raw if isinstance(r, TaskFailure))
    kept = [
        (s, result)
        for chunk, group in zip(chunks, raw)
        if not isinstance(group, TaskFailure)
        for s, result in zip(chunk, group)
    ]
    if not kept:
        raise TrainingError(
            f"all {len(seed_list)} training seeds failed; first failure "
            f"({failures[0].error_type}):\n{failures[0].traceback}"
        )
    return MultiSeedResult(
        seeds=tuple(s for s, _ in kept),
        results=tuple(r for _, r in kept),
        failures=failures,
    )


def evaluate_dqn(
    agent: DQNAgent,
    env_config: MDPConfig | None = None,
    *,
    slots: int = 20_000,
    history_length: int = 5,
    seed: SeedLike = None,
) -> MetricSummary:
    """Greedy evaluation of a trained agent over ``slots`` time slots."""
    if slots < 1:
        raise TrainingError("slots must be positive")
    env = SweepJammingEnv(
        env_config or MDPConfig(),
        history_length=history_length,
        seed=derive(seed, "eval-env"),
    )
    if env.observation_size != agent.config.observation_size:
        raise TrainingError("agent/environment observation size mismatch")
    if env.num_actions != agent.config.num_actions:
        raise TrainingError(
            f"agent has {agent.config.num_actions} actions but the "
            f"environment has {env.num_actions}"
        )
    log = SlotLog()
    with obs_trace.span("train/evaluate", slots=slots):
        obs = env.reset()
        for _ in range(slots):
            action = agent.act(obs, greedy=True)
            obs, _, info = env.step_index(action)
            log.record(info)
    summary = log.summary()
    obs_trace.event(
        "dqn.evaluation",
        slots=summary.slots,
        success_rate=summary.success_rate,
        mean_reward=summary.mean_reward,
    )
    return summary


__all__ = [
    "TrainingResult",
    "TrainerConfig",
    "train_dqn",
    "MultiSeedResult",
    "train_dqn_multi_seed",
    "evaluate_dqn",
]
