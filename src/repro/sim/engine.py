"""Knobs and checks shared by the slotted field engines.

The field slot loop itself is :class:`repro.sim.shard._ShardEngine`.
This module resolves its stream refill size (``REPRO_FIELD_BATCH``) and
validates slot budgets.
"""

from __future__ import annotations

from repro import knobs
from repro.errors import SimulationError

#: Environment variable selecting how many slots' worth of uniforms the
#: aggregate sampling mode draws per stream refill.
FIELD_BATCH_ENV = "REPRO_FIELD_BATCH"

#: Default slots per refill when nothing is configured.
DEFAULT_FIELD_BATCH = knobs.KNOBS[FIELD_BATCH_ENV].default


def resolve_field_batch(value: int | str | None = None) -> int:
    """Resolve the stream refill size from an override or ``REPRO_FIELD_BATCH``.

    ``None`` (and an unset/empty environment) selects
    :data:`DEFAULT_FIELD_BATCH`. Any value is bit-identical to any other:
    ``Generator.random(n)`` produces exactly the doubles ``n`` sequential
    ``random()`` calls would, so blocking only changes buffering.
    """
    return knobs.get(FIELD_BATCH_ENV, value)


def check_num_slots(num_slots: int) -> int:
    """Validate a slot budget (shared by every slotted engine)."""
    if num_slots < 1:
        raise SimulationError("must run at least one slot")
    return int(num_slots)


__all__ = [
    "FIELD_BATCH_ENV",
    "DEFAULT_FIELD_BATCH",
    "resolve_field_batch",
    "check_num_slots",
]
