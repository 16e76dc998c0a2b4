"""DQN-vs-DQN self-play: training the learning jammer.

The paper trains a victim DQN against a *fixed* sweep/camp jammer. Here
both sides learn: the victim picks (channel, power) as usual while a
jammer DQN picks which block to jam each slot, observing only what a real
jammer can sense (its own hit/miss history — :class:`JammerMemory`). The
two populations train in lock-step on the :class:`VectorEnv` stacked
tensors: ``pairs`` independent victim/jammer couples share two stacked
forward/backward chains per slot instead of ``2 * pairs`` serial ones.

The trained jammer deploys against *any* defence via
``FieldJammerConfig(adversary="learning", learning_agent=...)`` (field
clock) or a ``SweepJammingEnv`` ``jammer_factory`` that wraps its
:class:`~repro.jamming.adversary.LearningCore` (slot envs) — greedy
deployment consumes no rng, so evaluation stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import DEFAULT_HISTORY_LENGTH
from repro.core.dqn import DQNAgent, DQNConfig, EpsilonSchedule
from repro.core.envs import StepInfo, SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.core.vecenv import _batched_act, _batched_train_step, _StackedMLP
from repro.errors import ConfigurationError
from repro.jamming.adversary import JammerMemory
from repro.jamming.jammer import SlotJammer, SweepCore
from repro.obs import telemetry as obs_telemetry
from repro.rng import SeedLike, derive


class _PuppetJammer(SweepCore):
    """A jammer core whose block choice is commanded by an external agent."""

    def __init__(
        self, num_channels: int, num_blocks: int, rng: np.random.Generator
    ) -> None:
        super().__init__(num_channels, num_blocks, rng)
        self.commanded = 0

    def decide(self, victim_channel: int) -> tuple[int, ...]:
        return self.blocks[self.commanded]


class SelfPlayEnv:
    """A :class:`SweepJammingEnv` where both sides are agents.

    ``step`` takes the victim's action index *and* the jammer's block
    choice and returns both observations and both rewards. The jammer is
    rewarded for jammed slots (with partial credit when the victim's power
    control defeats the attack) — the zero-sum-ish shaping that makes
    self-play pressure the victim's hop pattern.
    """

    #: Jammer reward: full credit for a jammed slot, partial credit when
    #: the attack landed but the victim's power level won.
    JAM_REWARD = 1.0
    DEFEATED_REWARD = 0.2

    def __init__(
        self,
        config: MDPConfig | None = None,
        *,
        history_length: int = DEFAULT_HISTORY_LENGTH,
        seed: SeedLike = None,
    ) -> None:
        self._puppet: _PuppetJammer | None = None

        def factory(cfg: MDPConfig, rng: np.random.Generator) -> SlotJammer:
            self._puppet = _PuppetJammer(cfg.num_channels, cfg.sweep_cycle, rng)
            return SlotJammer(cfg, self._puppet)

        self.env = SweepJammingEnv(
            config,
            history_length=history_length,
            seed=seed,
            jammer_factory=factory,
        )
        self.memory = JammerMemory(self.num_blocks, history_length)

    @property
    def num_blocks(self) -> int:
        return len(self._puppet.blocks)

    @property
    def num_victim_actions(self) -> int:
        return self.env.num_actions

    @property
    def observation_size(self) -> int:
        return self.env.observation_size

    def reset(self, *, seed: SeedLike = None) -> tuple[np.ndarray, np.ndarray]:
        victim_obs = self.env.reset(seed=seed)
        self.memory.reset()
        return victim_obs, self.memory.observation()

    def step(
        self, victim_action: int, jammer_block: int
    ) -> tuple[np.ndarray, np.ndarray, float, float, StepInfo]:
        if not 0 <= jammer_block < self.num_blocks:
            raise ConfigurationError(f"jammer block {jammer_block} out of range")
        self._puppet.commanded = int(jammer_block)
        victim_obs, victim_reward, info = self.env.step_index(int(victim_action))
        self.memory.update(hit=info.jam_attempted, block=int(jammer_block))
        if not info.success:
            jammer_reward = self.JAM_REWARD
        elif info.jam_defeated:
            jammer_reward = self.DEFEATED_REWARD
        else:
            jammer_reward = 0.0
        return (
            victim_obs,
            self.memory.observation(),
            victim_reward,
            jammer_reward,
            info,
        )


@dataclass(frozen=True)
class SelfPlayConfig:
    """Budget of a self-play run."""

    env: MDPConfig = field(default_factory=MDPConfig)
    pairs: int = 4
    episodes: int = 30
    steps_per_episode: int = 200
    history_length: int = DEFAULT_HISTORY_LENGTH

    def __post_init__(self) -> None:
        if self.pairs < 1 or self.episodes < 1 or self.steps_per_episode < 1:
            raise ConfigurationError(
                "pairs, episodes, and steps_per_episode must all be positive"
            )

    @property
    def total_steps(self) -> int:
        return self.episodes * self.steps_per_episode


@dataclass
class SelfPlayResult:
    """Everything a self-play run produced."""

    victim_agents: list[DQNAgent]
    jammer_agents: list[DQNAgent]
    victim_returns: np.ndarray  # (pairs, episodes) summed victim reward
    jammer_returns: np.ndarray  # (pairs, episodes) summed jammer reward
    jam_rates: np.ndarray  # (pairs, episodes) fraction of slots jammed

    @property
    def best_pair(self) -> int:
        """Pair whose jammer jammed the most over the final quarter."""
        tail = max(1, self.jam_rates.shape[1] // 4)
        return int(self.jam_rates[:, -tail:].mean(axis=1).argmax())

    @property
    def best_jammer(self) -> DQNAgent:
        """The strongest trained jammer — what deployment should use."""
        return self.jammer_agents[self.best_pair]


def _default_dqn(
    observation_size: int, num_actions: int, total_steps: int
) -> DQNConfig:
    """A DQNConfig whose warmup/exploration fit the self-play budget."""
    warmup = 500 if total_steps >= 2000 else max(64, total_steps // 4)
    return DQNConfig(
        observation_size=observation_size,
        num_actions=num_actions,
        warmup_transitions=warmup,
        epsilon=EpsilonSchedule(decay_steps=max(1, int(total_steps * 0.6))),
    )


def train_selfplay(
    config: SelfPlayConfig | None = None,
    *,
    seed: SeedLike = 0,
) -> SelfPlayResult:
    """Train ``pairs`` victim/jammer couples in lock-step self-play.

    Deterministic in ``seed``. Returns every trained agent plus per-pair
    learning curves; :attr:`SelfPlayResult.best_jammer` is the adversary
    the comparison sweeps deploy.
    """
    cfg = config or SelfPlayConfig()
    envs = [
        SelfPlayEnv(
            cfg.env,
            history_length=cfg.history_length,
            seed=derive(seed, f"selfplay-env[{i}]"),
        )
        for i in range(cfg.pairs)
    ]
    obs_size = envs[0].observation_size
    victim_dqn = _default_dqn(obs_size, envs[0].num_victim_actions, cfg.total_steps)
    jammer_dqn = _default_dqn(obs_size, envs[0].num_blocks, cfg.total_steps)
    victims = [
        DQNAgent(victim_dqn, seed=derive(seed, f"selfplay-victim[{i}]"))
        for i in range(cfg.pairs)
    ]
    jammers = [
        DQNAgent(jammer_dqn, seed=derive(seed, f"selfplay-jammer[{i}]"))
        for i in range(cfg.pairs)
    ]
    v_stack = _StackedMLP(victims)
    j_stack = _StackedMLP(jammers)

    victim_returns = np.zeros((cfg.pairs, cfg.episodes))
    jammer_returns = np.zeros((cfg.pairs, cfg.episodes))
    jam_rates = np.zeros((cfg.pairs, cfg.episodes))
    telem = obs_telemetry.FlightRecorder(
        "selfplay", labels={"pairs": str(cfg.pairs)}
    )
    for episode in range(cfg.episodes):
        pairs = [env.reset() for env in envs]
        v_obs = np.stack([p[0] for p in pairs])
        j_obs = np.stack([p[1] for p in pairs])
        for _ in range(cfg.steps_per_episode):
            v_actions = _batched_act(v_stack, victims, v_obs)
            j_actions = _batched_act(j_stack, jammers, j_obs)
            for i, env in enumerate(envs):
                next_v, next_j, v_reward, j_reward, info = env.step(
                    int(v_actions[i]), int(j_actions[i])
                )
                victims[i].replay.push(
                    v_obs[i], int(v_actions[i]), v_reward, next_v
                )
                victims[i].env_steps += 1
                jammers[i].replay.push(
                    j_obs[i], int(j_actions[i]), j_reward, next_j
                )
                jammers[i].env_steps += 1
                v_obs[i] = next_v
                j_obs[i] = next_j
                victim_returns[i, episode] += v_reward
                jammer_returns[i, episode] += j_reward
                jam_rates[i, episode] += float(not info.success)
            # Replays grow one transition per slot for every pair, so the
            # warm-up gate flips for all pairs on the same slot (the
            # alignment _batched_train_step relies on).
            if len(victims[0].replay) >= victim_dqn.warmup_transitions:
                _batched_train_step(v_stack, victims)
            if len(jammers[0].replay) >= jammer_dqn.warmup_transitions:
                _batched_train_step(j_stack, jammers)
        telem.tick(
            episodes=1.0,
            jam_rate=float(jam_rates[:, episode].mean())
            / cfg.steps_per_episode,
            victim_return=float(victim_returns[:, episode].mean()),
            jammer_return=float(jammer_returns[:, episode].mean()),
        )
    telem.flush()
    jam_rates /= cfg.steps_per_episode
    for i in range(cfg.pairs):
        v_stack.write_back(i, victims[i])
        j_stack.write_back(i, jammers[i])
    return SelfPlayResult(
        victim_agents=victims,
        jammer_agents=jammers,
        victim_returns=victim_returns,
        jammer_returns=jammer_returns,
        jam_rates=jam_rates,
    )


__all__ = [
    "SelfPlayEnv",
    "SelfPlayConfig",
    "SelfPlayResult",
    "train_selfplay",
]
