"""Policy abstractions: tabular and threshold-structured.

The MDP's optimal policy has the threshold structure of Theorem III.4 —
stay while the streak is short, hop once it reaches n*. These classes give
that structure (and arbitrary tabular policies) a uniform callable
interface used by the environments and the metric harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.mdp import TJ, J, Action, State
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TabularPolicy:
    """A policy given explicitly as a state -> action table."""

    table: Mapping[State, Action]

    def action(self, state: State) -> Action:
        try:
            return self.table[state]
        except KeyError:
            raise ConfigurationError(f"policy has no action for state {state!r}") from None


@dataclass(frozen=True)
class ThresholdPolicy:
    """The structured optimal policy of Theorem III.4.

    Stay (with ``stay_power_index``) while the streak n < ``threshold``;
    hop (with ``hop_power_index``) at n >= threshold and from TJ/J.
    """

    threshold: int
    stay_power_index: int
    hop_power_index: int
    #: Whether to hop out of the jammed states; the paper's optimum always
    #: does once L_J is meaningful, but a degenerate stay-forever policy is
    #: useful as a worst-case baseline.
    hop_when_jammed: bool = True

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ConfigurationError("threshold must be >= 1")

    def action(self, state: State) -> Action:
        if state in (TJ, J):
            return Action(hop=self.hop_when_jammed, power_index=self.hop_power_index)
        n = int(state)
        if n < self.threshold:
            return Action(hop=False, power_index=self.stay_power_index)
        return Action(hop=True, power_index=self.hop_power_index)


def policy_from_solution_map(table: Mapping[State, Action]) -> TabularPolicy:
    """Wrap a solved policy map in the common interface."""
    return TabularPolicy(dict(table))


__all__ = [
    "TabularPolicy",
    "ThresholdPolicy",
    "policy_from_solution_map",
]
