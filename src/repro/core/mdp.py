"""The anti-jamming Markov Decision Process of paper §III-A.

State space (Eq. 3)::

    X = {1, 2, ..., ceil(K/m) - 1, TJ, J}

where ``n`` counts consecutive successful slots on the current channel,
``TJ`` means the slot was attacked but survived (jamming power too low),
and ``J`` means the transmission was jammed. The action space (Eq. 4) pairs
{stay, hop} with a transmit power level; immediate rewards (Eq. 5) charge
the power loss L_p, the hop loss L_H and the jam loss L_J; the transition
kernel implements Cases 1–6 (Eqs. 6–14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from repro.constants import (
    DEFAULT_DISCOUNT,
    DEFAULT_JAMMER_POWER_LEVELS,
    DEFAULT_LOSS_HOP,
    DEFAULT_LOSS_JAM,
    DEFAULT_TX_POWER_LEVELS,
    NUM_ZIGBEE_CHANNELS,
    ZIGBEE_CHANNELS_PER_WIFI,
)
from repro.errors import ConfigurationError

#: Sentinel state: jammed unsuccessfully (transmission survived the attack).
TJ = "TJ"

#: Sentinel state: jammed successfully (transmission lost).
J = "J"

State = Union[int, str]

#: Int codes of the attack states in packed state arrays; a clean streak
#: state keeps its positive streak value as its code.
J_CODE = -2
TJ_CODE = -1


def state_code(state: State) -> int:
    """Pack a state into its int code (J → −2, TJ → −1, streak n → n)."""
    if state == J:
        return J_CODE
    if state == TJ:
        return TJ_CODE
    return int(state)


def code_state(code: int) -> State:
    """Unpack an int state code (the inverse of :func:`state_code`)."""
    if code == J_CODE:
        return J
    if code == TJ_CODE:
        return TJ
    return int(code)


def slot_transition(code, streak, *, hopped, attempted, jammed, sweep_cycle: int):
    """Label one slot from its outcome: the J / TJ / streak rule of Eq. (3).

    An attacked slot lands in J when the attack ``jammed`` it and in TJ
    when the transmission survived; either resets the streak to 0. A clean
    slot restarts the streak at 1 after a hop or an attacked slot, and
    otherwise extends it, capped at ``sweep_cycle - 1``. ``jammed`` must
    imply ``attempted``, and ``streak`` is a previous output (0 up to the
    cap). Takes int state codes and bool outcomes as scalars or arrays;
    returns ``(next_code, next_streak)``.

    Written with operators only, bools weighing 0/1, so one expression
    serves the vectorised field loop and the per-step env without
    numpy's per-call overhead on scalars.
    """
    restart = hopped | (code < 0)
    grown = streak + (streak < sweep_cycle - 1)
    clean = grown + restart * (1 - grown)
    # attempted selects TJ over the clean streak; jammed moves TJ to J.
    next_code = clean + attempted * (TJ_CODE - clean) + jammed * (J_CODE - TJ_CODE)
    return next_code, clean - attempted * clean


def slot_reward(tx_power, hopped, jammed, config: MDPConfig):
    """Immediate reward of Eq. (5): −L_p − L_H·[hop] − L_J·[x' = J].

    Scalars or arrays; ``tx_power`` is the slot's power loss L^T_p.
    """
    return -tx_power - config.loss_hop * hopped - config.loss_jam * jammed


@dataclass(frozen=True)
class Action:
    """One MDP action: stay or hop, with a transmit power level index."""

    hop: bool
    power_index: int

    def describe(self, config: "MDPConfig") -> str:
        kind = "hop" if self.hop else "stay"
        return f"({kind}, p={config.tx_power_levels[self.power_index]})"


class JammerMode:
    """The two jammer power policies of paper §II-C-1."""

    MAX = "max"  # high-performance mode: always the largest power level
    RANDOM = "random"  # hidden mode: uniformly random power level

    ALL = (MAX, RANDOM)


@dataclass(frozen=True)
class MDPConfig:
    """Parameters of the competition (paper §IV-A-1 defaults).

    ``tx_power_levels`` double as the per-slot power losses L^T_p; likewise
    ``jammer_power_levels`` are the jammer's L^J_p. A jam attempt succeeds
    iff the jammer's level exceeds the victim's ("the transmission will be
    successful if L^T_p >= L^J_p").
    """

    num_channels: int = NUM_ZIGBEE_CHANNELS
    jam_width: int = ZIGBEE_CHANNELS_PER_WIFI
    tx_power_levels: tuple[float, ...] = DEFAULT_TX_POWER_LEVELS
    jammer_power_levels: tuple[float, ...] = DEFAULT_JAMMER_POWER_LEVELS
    loss_hop: float = DEFAULT_LOSS_HOP
    loss_jam: float = DEFAULT_LOSS_JAM
    jammer_mode: str = JammerMode.MAX
    discount: float = DEFAULT_DISCOUNT
    #: Override the sweep cycle ceil(K/m) directly (used by the Fig. 6(b)
    #: parameter sweep); ``None`` derives it from the channel geometry.
    sweep_cycle_override: int | None = None

    def __post_init__(self) -> None:
        if self.num_channels < 2:
            raise ConfigurationError("need at least 2 channels to hop between")
        if not 1 <= self.jam_width <= self.num_channels:
            raise ConfigurationError(
                f"jam width must be in 1..{self.num_channels}, got {self.jam_width}"
            )
        if not self.tx_power_levels:
            raise ConfigurationError("victim needs at least one power level")
        if not self.jammer_power_levels:
            raise ConfigurationError("jammer needs at least one power level")
        if list(self.tx_power_levels) != sorted(self.tx_power_levels):
            raise ConfigurationError("tx power levels must be sorted ascending")
        if list(self.jammer_power_levels) != sorted(self.jammer_power_levels):
            raise ConfigurationError("jammer power levels must be sorted ascending")
        if self.loss_hop < 0 or self.loss_jam < 0:
            raise ConfigurationError("losses must be non-negative")
        if self.jammer_mode not in JammerMode.ALL:
            raise ConfigurationError(
                f"jammer mode must be one of {JammerMode.ALL}, got "
                f"{self.jammer_mode!r}"
            )
        if not 0.0 <= self.discount < 1.0:
            raise ConfigurationError("discount must lie in [0, 1)")
        if self.sweep_cycle_override is not None and self.sweep_cycle_override < 2:
            raise ConfigurationError("sweep cycle must be at least 2")

    @property
    def sweep_cycle(self) -> int:
        """⌈K/m⌉: slots the jammer needs to sweep every channel."""
        if self.sweep_cycle_override is not None:
            return self.sweep_cycle_override
        return math.ceil(self.num_channels / self.jam_width)

    @property
    def num_power_levels(self) -> int:
        return len(self.tx_power_levels)

    def jam_success_probability(self, power_index: int) -> float:
        """P(p^T_i < τ): probability a jam attempt defeats power level ``i``.

        In max mode the jammer always transmits at its top level; in random
        (hidden) mode it draws uniformly from its levels. The attempt
        succeeds iff the jammer's level strictly exceeds the victim's.
        """
        p = self.tx_power_levels[power_index]
        if self.jammer_mode == JammerMode.MAX:
            return 1.0 if self.jammer_power_levels[-1] > p else 0.0
        wins = sum(1 for pj in self.jammer_power_levels if pj > p)
        return wins / len(self.jammer_power_levels)


class AntiJammingMDP:
    """The finite MDP of paper §III-A with kernel Cases 1–6."""

    def __init__(self, config: MDPConfig | None = None) -> None:
        self.config = config or MDPConfig()
        s = self.config.sweep_cycle
        if s < 2:
            raise ConfigurationError(
                "the MDP needs a sweep cycle of at least 2 (jam width "
                "covering every channel leaves no streak states)"
            )
        self.streak_states: tuple[int, ...] = tuple(range(1, s))
        self.states: tuple[State, ...] = (*self.streak_states, TJ, J)
        self.actions: tuple[Action, ...] = tuple(
            Action(hop=hop, power_index=i)
            for hop in (False, True)
            for i in range(self.config.num_power_levels)
        )
        self._state_index = {x: k for k, x in enumerate(self.states)}
        self._action_index = {a: k for k, a in enumerate(self.actions)}

    # -- indexing ---------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    def state_index(self, state: State) -> int:
        try:
            return self._state_index[state]
        except KeyError:
            raise ConfigurationError(f"unknown state {state!r}") from None

    def action_index(self, action: Action) -> int:
        try:
            return self._action_index[action]
        except KeyError:
            raise ConfigurationError(f"unknown action {action!r}") from None

    # -- rewards (Eq. 5) ----------------------------------------------------------

    def reward(self, state: State, action: Action, next_state: State) -> float:
        """Immediate reward U(x, a, x') of Eq. (5)."""
        del state  # the reward depends only on the action and the landing state
        return float(
            slot_reward(
                float(self.config.tx_power_levels[action.power_index]),
                action.hop,
                next_state == J,
                self.config,
            )
        )

    def expected_reward(self, state: State, action: Action) -> float:
        """E[U(x, a, ·)] under the transition kernel (Eqs. 23–24)."""
        return sum(
            p * self.reward(state, action, x2)
            for x2, p in self.transitions(state, action).items()
        )

    # -- transition kernel (Eqs. 6-14) ----------------------------------------------

    def transitions(self, state: State, action: Action) -> dict[State, float]:
        """P(· | state, action) as a dict of next-state probabilities."""
        s = self.config.sweep_cycle
        p_jam = self.config.jam_success_probability(action.power_index)
        p_survive = 1.0 - p_jam
        out: dict[State, float] = {}

        if state in (TJ, J):
            if action.hop:
                # Case 6, Eq. (14): a hop from a jammed channel always
                # escapes for one slot.
                out[1] = 1.0
            else:
                # Case 5, Eqs. (12)-(13): the camping jammer attacks again.
                out[TJ] = p_survive
                out[J] = p_jam
            return self._merged(out)

        n = int(state)
        if not 1 <= n <= s - 1:
            raise ConfigurationError(f"streak state {n} outside 1..{s - 1}")
        if action.hop:
            # Cases 3-4, Eqs. (9)-(11).
            q = (s - n - 1) / ((s - 1) * (s - n))
            out[1] = 1.0 - q
            out[TJ] = q * p_survive
            out[J] = q * p_jam
        else:
            # Cases 1-2, Eqs. (6)-(8).
            hit = 1.0 / (s - n)
            if n <= s - 2:
                out[n + 1] = 1.0 - hit
            out[TJ] = hit * p_survive
            out[J] = hit * p_jam
        return self._merged(out)

    @staticmethod
    def _merged(dist: dict[State, float]) -> dict[State, float]:
        out = {x: p for x, p in dist.items() if p > 0.0}
        total = sum(out.values())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ConfigurationError(f"kernel row sums to {total}, not 1")
        return out

    # -- dense matrices for the solver ----------------------------------------------

    def kernel_matrix(self) -> np.ndarray:
        """(num_states, num_actions, num_states) dense transition tensor."""
        P = np.zeros((self.num_states, self.num_actions, self.num_states))
        for xi, x in enumerate(self.states):
            for ai, a in enumerate(self.actions):
                for x2, p in self.transitions(x, a).items():
                    P[xi, ai, self.state_index(x2)] = p
        return P

    def reward_matrix(self) -> np.ndarray:
        """(num_states, num_actions) expected immediate rewards."""
        R = np.zeros((self.num_states, self.num_actions))
        for xi, x in enumerate(self.states):
            for ai, a in enumerate(self.actions):
                R[xi, ai] = self.expected_reward(x, a)
        return R

    # -- introspection helpers --------------------------------------------------

    def describe(self) -> str:
        cfg = self.config
        return (
            f"AntiJammingMDP(K={cfg.num_channels}, m={cfg.jam_width}, "
            f"sweep_cycle={cfg.sweep_cycle}, powers={cfg.num_power_levels}, "
            f"L_H={cfg.loss_hop}, L_J={cfg.loss_jam}, mode={cfg.jammer_mode})"
        )


def streak_states(config: MDPConfig) -> Iterable[int]:
    """The streak portion of the state space for ``config``."""
    return range(1, config.sweep_cycle)


__all__ = [
    "TJ",
    "J",
    "State",
    "J_CODE",
    "TJ_CODE",
    "state_code",
    "code_state",
    "slot_transition",
    "slot_reward",
    "Action",
    "JammerMode",
    "MDPConfig",
    "AntiJammingMDP",
    "streak_states",
]
