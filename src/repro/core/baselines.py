"""Baseline anti-jamming schemes compared against RL FH in Fig. 11(a).

The paper implements two comparison schemes distilled from common
anti-jamming designs (e.g. Hanawal et al., Chang et al.):

* **Passive FH (PSV FH)** — react only: keep channel and power until the
  communication is actually jammed, then hop.
* **Random FH (Rand FH)** — at the start of every slot pick frequency
  hopping or power control at random, regardless of what the jammer does.

Both are expressed as state policies over the same MDP interface so every
scheme runs on identical environments.
"""

from __future__ import annotations

from repro.core.mdp import J, Action, MDPConfig, State
from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


class PassiveFHPolicy:
    """Hop only after the communication has been jammed.

    Paper §II-C-2: the victim reacts "once the error rate exceeds a certain
    threshold" — modelled as ``react_after`` consecutive jammed slots before
    the hop is triggered. Until then it transmits at the minimum power on
    the current channel; a TJ slot (attacked but survived) is not even
    noticed. The policy is stateful: it counts failures between hops.
    """

    def __init__(
        self,
        config: MDPConfig,
        *,
        react_after: int = 3,
    ) -> None:
        if react_after < 1:
            raise ConfigurationError("react_after must be >= 1")
        self.config = config
        self.react_after = react_after
        self._consecutive_failures = 0

    def reset(self) -> None:
        self._consecutive_failures = 0

    def action(self, state: State) -> Action:
        if state == J:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.react_after:
                self._consecutive_failures = 0
                return Action(hop=True, power_index=0)
            return Action(hop=False, power_index=0)
        self._consecutive_failures = 0
        return Action(hop=False, power_index=0)


class RandomFHPolicy:
    """Pick FH or PC uniformly at random at the start of every slot.

    A PC slot keeps the channel and draws a uniformly random power level; an
    FH slot hops and transmits at the minimum power.
    """

    def __init__(
        self,
        config: MDPConfig,
        *,
        hop_probability: float = 0.5,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 <= hop_probability <= 1.0:
            raise ConfigurationError(
                f"hop probability must be in [0, 1], got {hop_probability}"
            )
        self.config = config
        self.hop_probability = hop_probability
        self._rng = make_rng(seed)

    def action(self, state: State) -> Action:
        del state
        if self._rng.random() < self.hop_probability:
            return Action(hop=True, power_index=0)
        power = int(self._rng.integers(self.config.num_power_levels))
        return Action(hop=False, power_index=power)


class NoDefensePolicy:
    """Never hop, never raise power — the undefended lower bound."""

    def action(self, state: State) -> Action:
        del state
        return Action(hop=False, power_index=0)


__all__ = [
    "PassiveFHPolicy",
    "RandomFHPolicy",
    "NoDefensePolicy",
]
