"""Simulation engines.

:mod:`repro.sim.engine` — knobs and checks shared by the field engines.
:mod:`repro.sim.scenario` — canonical parameter sets (the paper's §IV-A
defaults and the named scenarios of each figure).
:mod:`repro.sim.field` — the "real-world field experiment" simulator that
combines the network timing model, the time-domain jammer and an
anti-jamming policy to produce goodput in packets per time slot
(Figs. 9–11).
:mod:`repro.sim.shard` — the field slot loop, run over one network or a
sharded grid of many.
"""

from repro.sim.field import (
    DQNPolicyAdapter,
    FieldConfig,
    FieldExperiment,
    FieldResult,
    StatePolicyAdapter,
)
from repro.sim.scenario import paper_defaults, scheme_policy
from repro.sim.shard import (
    FieldGrid,
    GridConfig,
    GridResult,
    InterferenceModel,
    SchemeAdapterFactory,
)

__all__ = [
    "DQNPolicyAdapter",
    "FieldConfig",
    "FieldExperiment",
    "FieldResult",
    "StatePolicyAdapter",
    "FieldGrid",
    "GridConfig",
    "GridResult",
    "InterferenceModel",
    "SchemeAdapterFactory",
    "paper_defaults",
    "scheme_policy",
]
