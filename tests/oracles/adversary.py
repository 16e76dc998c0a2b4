"""Each adversary on the slot clock, for the slot-vs-field parity checks."""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_HISTORY_LENGTH
from repro.core.mdp import MDPConfig
from repro.jamming.adversary import core_builder
from repro.jamming.jammer import FollowerJammerConfig, ReactiveJammerConfig, SlotJammer


def make_slot_jammer_factory(
    adversary: str = "sweep",
    *,
    reactive: ReactiveJammerConfig | None = None,
    follower: FollowerJammerConfig | None = None,
    agent=None,
    slot_duration_s: float = 3.0,
    history_length: int = DEFAULT_HISTORY_LENGTH,
):
    """A ``jammer_factory`` for :class:`~repro.core.envs.SweepJammingEnv`.

    The factory builds the adversary's core over the MDP's
    ``sweep_cycle`` blocks on the env's stream and wraps it in a
    :class:`~repro.jamming.jammer.SlotJammer`; ``slot_duration_s``
    converts the reactive jammer's latency into slots. Returns ``None``
    for ``"sweep"`` so callers can pass the result straight through (the
    env then builds the paper's jammer itself).
    """
    if adversary == "sweep":
        return None
    build = core_builder(
        adversary,
        reactive=reactive,
        follower=follower,
        agent=agent,
        history_length=history_length,
    )

    def factory(config: MDPConfig, rng: np.random.Generator) -> SlotJammer:
        decisions = build(config.num_channels, config.sweep_cycle, rng)
        return SlotJammer(config, decisions, slot_duration_s=slot_duration_s)

    return factory
