"""Opt-in per-stage cProfile hook.

``REPRO_PROFILE=1`` makes every timed stage (anything under
:meth:`repro.exec.timing.TimingRegistry.stage`, including the CLI command
wrapper and each ``ParallelRunner`` dispatch) dump a
``PROF_<stage>.pstats`` file next to the BENCH artifacts. Inspect with::

    python -m pstats benchmarks/results/PROF_parameter_sweeps.pstats

Profiles do not nest — an inner stage inside an already-profiled outer
stage is skipped, because :mod:`cProfile` cannot run two profilers at
once. The hook costs one env lookup when off.
"""

from __future__ import annotations

import cProfile
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro import knobs
from repro.obs.paths import artifact_dir

_ACTIVE = False


def profiling_enabled() -> bool:
    """True when ``REPRO_PROFILE`` is set to a truthy value."""
    return knobs.get("REPRO_PROFILE")


def _safe_name(stage: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", stage)


@contextmanager
def maybe_profile(
    stage: str, *, directory: Path | str | None = None
) -> Iterator[cProfile.Profile | None]:
    """Profile the block into ``PROF_<stage>.pstats`` when enabled."""
    global _ACTIVE
    if _ACTIVE or not profiling_enabled():
        yield None
        return
    profile = cProfile.Profile()
    _ACTIVE = True
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()
        _ACTIVE = False
        out_dir = Path(directory) if directory is not None else artifact_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        profile.dump_stats(out_dir / f"PROF_{_safe_name(stage)}.pstats")


__all__ = ["profiling_enabled", "maybe_profile"]
