"""Knobs and checks shared by the slotted field engines.

The field slot loop itself is :class:`repro.sim.shard._ShardEngine`.
This module resolves its stream refill size (``REPRO_FIELD_BATCH``) and
validates slot budgets.
"""

from __future__ import annotations

from repro import knobs
from repro.errors import SimulationError


def resolve_field_batch(value: int | str | None = None) -> int:
    """Resolve the stream refill size from an override or ``REPRO_FIELD_BATCH``.

    The size is the slots' worth of uniforms the aggregate sampling mode
    draws per stream refill. Any value is bit-identical to any other:
    ``Generator.random(n)`` produces exactly the doubles ``n`` sequential
    ``random()`` calls would, so blocking only changes buffering.
    """
    return knobs.get("REPRO_FIELD_BATCH", value)


def check_num_slots(num_slots: int) -> int:
    """Validate a slot budget (shared by every slotted engine)."""
    if num_slots < 1:
        raise SimulationError("must run at least one slot")
    return int(num_slots)


__all__ = [
    "resolve_field_batch",
    "check_num_slots",
]
