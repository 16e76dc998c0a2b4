"""The cross-technology attacker.

Every adversary is one per-decision core driven by one of two clocks.
:mod:`repro.jamming.jammer` holds the paper's sweep/camp core
(:class:`SweepCore`), the field clock (:class:`FieldJammer`, which runs
on its *own* slot cadence, possibly different from the victim's — the
Fig. 11(b) study) and the slot clock (:class:`SlotJammer`, one decision
per victim slot of :class:`~repro.core.envs.SweepJammingEnv`).

:mod:`repro.jamming.detector` models how the jammer finds its victim
(energy sensing, ACK eavesdropping) and how hard the EmuBee signal is for
the victim to recognise as jamming (stealthiness).

:mod:`repro.jamming.adversary` goes beyond the paper's threat model with
reactive, follower, and learning cores, each on either clock through one
adversary→core table.
"""

from repro.jamming.adversary import (
    FollowerCore,
    JammerMemory,
    LearningCore,
    ReactiveCore,
    make_field_jammer,
)
from repro.jamming.detector import AckEavesdropper, EnergyDetector, StealthReport, stealth_assessment
from repro.jamming.jammer import (
    ADVERSARIES,
    AttackProfile,
    FieldJammer,
    FieldJammerConfig,
    FollowerJammerConfig,
    ReactiveJammerConfig,
    SlotJammer,
    SweepCore,
    channel_blocks,
)
from repro.jamming.strategies import (
    STRATEGY_NAMES,
    AdaptiveSweep,
    RandomSweep,
    SequentialSweep,
    SweepStrategy,
    make_strategy,
    strategy_options,
)

__all__ = [
    "AckEavesdropper",
    "EnergyDetector",
    "StealthReport",
    "stealth_assessment",
    "ADVERSARIES",
    "AttackProfile",
    "SweepCore",
    "FieldJammer",
    "SlotJammer",
    "FieldJammerConfig",
    "FollowerJammerConfig",
    "ReactiveJammerConfig",
    "channel_blocks",
    "JammerMemory",
    "ReactiveCore",
    "FollowerCore",
    "LearningCore",
    "make_field_jammer",
    "AdaptiveSweep",
    "RandomSweep",
    "SequentialSweep",
    "SweepStrategy",
    "STRATEGY_NAMES",
    "strategy_options",
    "make_strategy",
]
