"""Slotted anti-jamming environment.

:class:`SweepJammingEnv` simulates the mechanics the MDP kernel of
Eqs. (6)–(14) abstracts: a jammer sweeping m-channel blocks without
replacement, camping on the victim once found, losing a slot when the
victim escapes (the paper's :class:`~repro.jamming.jammer.SweepCore` on
the slot clock, or any other adversary's core through ``jammer_factory``).
A property test verifies its empirical transition frequencies approach
the analytic kernel (sampled exactly by the oracle env in
``tests/oracles/mdp.py``). Its observation is the 3·I history vector the
paper's DQN consumes (state/channel/power of the previous I slots, §III-C).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.channel.fidelity import JamAdjudicator
from repro.constants import DEFAULT_HISTORY_LENGTH
from repro.core.mdp import (
    J_CODE,
    TJ,
    TJ_CODE,
    J,
    Action,
    MDPConfig,
    State,
    code_state,
    slot_reward,
    slot_transition,
    state_code,
)
from repro.errors import ConfigurationError, SimulationError
from repro.jamming.jammer import SlotJammer, SweepCore
from repro.rng import SeedLike, make_rng


def history_row(
    state: State, channel: int, power_index: int, config: MDPConfig
) -> tuple[float, float, float]:
    """One slot of the DQN's 3·I history input (§III-C).

    The slot outcome (1 clean, 0.5 attacked but survived, 0 jammed), then
    the channel and power level each normalised to [0, 1]. Training
    (:class:`SweepJammingEnv`) and field deployment
    (:class:`~repro.sim.field.DQNPolicyAdapter`) both encode with this.
    """
    outcome = 1.0 if state not in (TJ, J) else (0.5 if state == TJ else 0.0)
    return (
        outcome,
        channel / max(config.num_channels - 1, 1),
        power_index / max(config.num_power_levels - 1, 1),
    )


def history_rows(
    codes: np.ndarray,
    channels: np.ndarray,
    power_indices: np.ndarray,
    config: MDPConfig,
) -> np.ndarray:
    """:func:`history_row` for N slots at once, from int state codes.

    Row i of the (N, 3) float64 result equals ``history_row(
    code_state(codes[i]), channels[i], power_indices[i], config)`` bit
    for bit; the DQN fleet of :mod:`repro.sim.shard` decodes its history
    symbols through a table built with this.
    """
    codes = np.asarray(codes)
    outcome = np.where(codes == J_CODE, 0.0, np.where(codes == TJ_CODE, 0.5, 1.0))
    return np.stack(
        [
            outcome,
            np.asarray(channels) / max(config.num_channels - 1, 1),
            np.asarray(power_indices) / max(config.num_power_levels - 1, 1),
        ],
        axis=1,
    )


@dataclass(frozen=True)
class StepInfo:
    """Everything the metrics harness needs to know about one slot."""

    state: State  # MDP-style label of the landing state
    success: bool  # the slot's transmission got through
    hopped: bool
    power_index: int
    power_raised: bool  # transmitted above the minimum level (PC engaged)
    jam_attempted: bool  # the jammer attacked the victim's channel
    jam_defeated: bool  # attacked, but the victim's power level won
    avoided_jam: bool  # hopped, succeeded, and the old channel was attacked
    reward: float
    channel: int | None = None  # mechanistic env only


class SweepJammingEnv:
    """Mechanistic slotted environment with the 3·I history observation.

    Action space: the paper's DQN output — one action per (channel, power)
    pair, ``index = channel * num_powers + power_index``. Abstract MDP
    actions are also accepted via :meth:`step_action` (a hop draws a uniform
    random different channel), so exact-MDP policies and baselines run on
    the same mechanics the DQN is trained on.
    """

    def __init__(
        self,
        config: MDPConfig | None = None,
        *,
        history_length: int = DEFAULT_HISTORY_LENGTH,
        seed: SeedLike = None,
        sweep_strategy=None,
        jammer_factory=None,
        channel: str | None = None,
    ) -> None:
        self.config = config or MDPConfig()
        # Fidelity tier of jam adjudication (default REPRO_CHANNEL). The
        # analytic tier keeps the deterministic threshold contest and
        # consumes no randomness, so default trajectories are unchanged.
        self._adjudicator = JamAdjudicator(channel)
        if history_length < 1:
            raise ConfigurationError("history length must be >= 1")
        if sweep_strategy is not None and jammer_factory is not None:
            raise ConfigurationError(
                "pass either sweep_strategy or jammer_factory, not both "
                "(a custom jammer owns its own strategy)"
            )
        self.history_length = history_length
        self._rng = make_rng(seed)
        # Kept pristine as a template: every seeded reset deep-copies it so
        # two reset(seed=k) calls start from identical strategy state.
        self._sweep_strategy = sweep_strategy
        self._jammer_factory = jammer_factory
        self._jammer = self._build_jammer()
        self.reset()

    def _build_jammer(self) -> SlotJammer:
        if self._jammer_factory is not None:
            return self._jammer_factory(self.config, self._rng)
        cfg = self.config
        core = SweepCore(
            cfg.num_channels,
            cfg.sweep_cycle,
            self._rng,
            copy.deepcopy(self._sweep_strategy),
        )
        return SlotJammer(cfg, core)

    # -- space geometry --------------------------------------------------------

    @property
    def num_actions(self) -> int:
        return self.config.num_channels * self.config.num_power_levels

    @property
    def observation_size(self) -> int:
        return 3 * self.history_length

    def action_to_channel_power(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.num_actions:
            raise SimulationError(f"action index {index} out of range")
        return divmod(index, self.config.num_power_levels)

    def channel_power_to_action(self, channel: int, power_index: int) -> int:
        if not 0 <= channel < self.config.num_channels:
            raise SimulationError(f"channel {channel} out of range")
        if not 0 <= power_index < self.config.num_power_levels:
            raise SimulationError(f"power index {power_index} out of range")
        return channel * self.config.num_power_levels + power_index

    # -- lifecycle ---------------------------------------------------------------

    def reset(self, *, seed: SeedLike = None) -> np.ndarray:
        if seed is not None:
            self._rng = make_rng(seed)
            self._jammer = self._build_jammer()
        else:
            self._jammer.reset()
        self.channel = int(self._rng.integers(self.config.num_channels))
        self.state: State = 1
        self._streak = 1
        self._history: list[tuple[float, float, float]] = [
            history_row(1, self.channel, 0, self.config)
        ] * self.history_length
        return self.observation()

    def observation(self) -> np.ndarray:
        """The DQN input: (outcome, channel, power) of the last I slots."""
        return np.array(self._history, dtype=np.float64).reshape(-1)

    # -- stepping ---------------------------------------------------------------

    def step_index(self, action_index: int) -> tuple[np.ndarray, float, StepInfo]:
        channel, power_index = self.action_to_channel_power(action_index)
        return self._advance(channel, power_index)

    def step_action(self, action: Action) -> tuple[np.ndarray, float, StepInfo]:
        if action.hop:
            others = [
                c for c in range(self.config.num_channels) if c != self.channel
            ]
            channel = int(others[int(self._rng.integers(len(others)))])
        else:
            channel = self.channel
        return self._advance(channel, action.power_index)

    def _advance(
        self, channel: int, power_index: int
    ) -> tuple[np.ndarray, float, StepInfo]:
        cfg = self.config
        if not 0 <= power_index < cfg.num_power_levels:
            raise SimulationError(f"power index {power_index} out of range")
        if not 0 <= channel < cfg.num_channels:
            raise SimulationError(f"channel {channel} out of range")
        hopped = channel != self.channel
        previous_channel = self.channel
        previous_state = self.state
        self.channel = channel

        attacked, jam_power, attacked_channels = self._jammer.observe_and_attack(
            channel
        )
        tx_power = cfg.tx_power_levels[power_index]
        defeated = attacked and bool(
            self._adjudicator.defeats(tx_power, jam_power, rng=self._rng)
        )
        # The sweep jammer covers the whole slot: an attack that is not
        # defeated jams it (jam fraction 1.0).
        jammed = attacked and not defeated
        code, streak = slot_transition(
            state_code(previous_state),
            self._streak,
            hopped=hopped,
            attempted=attacked,
            jammed=jammed,
            sweep_cycle=cfg.sweep_cycle,
        )
        next_state = code_state(int(code))
        self._streak = int(streak)

        success = not jammed
        avoided = (
            hopped and success and previous_channel in attacked_channels
        )
        reward = float(slot_reward(float(tx_power), hopped, jammed, cfg))
        self.state = next_state

        self._history.pop(0)
        self._history.append(history_row(next_state, channel, power_index, cfg))
        info = StepInfo(
            state=next_state,
            success=success,
            hopped=hopped,
            power_index=power_index,
            power_raised=power_index > 0,
            jam_attempted=attacked,
            jam_defeated=attacked and defeated,
            avoided_jam=avoided,
            reward=reward,
            channel=channel,
        )
        return self.observation(), reward, info


__all__ = [
    "history_row",
    "history_rows",
    "StepInfo",
    "SweepJammingEnv",
]
