"""Lightweight wall-clock timing registry for the execution layer.

Every heavy pipeline stage (a parameter sweep, a DQN training run, a
figure regeneration) records its elapsed wall-clock here under a stage
name. Totals accumulate per process; :func:`write_bench` snapshots the
registry into a ``BENCH_<name>.json`` artifact so successive PRs can
track the performance trajectory of each benchmark.

Artifacts land in ``$REPRO_BENCH_DIR`` when set, else in
``benchmarks/results/`` next to the figure tables.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

from repro import knobs
from repro.obs.metrics import METRICS
from repro.obs.paths import artifact_dir
from repro.obs.profile import maybe_profile


@dataclass
class StageStats:
    """Accumulated wall-clock and fault counts of one named stage."""

    seconds: float = 0.0
    calls: int = 0
    #: Task count processed by the stage (e.g. sweep points), when known.
    items: int = 0
    #: Task re-dispatches performed by the fault layer.
    retries: int = 0
    #: Tasks that failed permanently (raised or skipped as sentinels).
    failures: int = 0
    #: Per-task timeout events (each one also counts as a failed attempt).
    timeouts: int = 0

    def as_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "calls": self.calls,
            "items": self.items,
            "retries": self.retries,
            "failures": self.failures,
            "timeouts": self.timeouts,
        }


@dataclass
class TimingRegistry:
    """Per-stage wall-clock accumulator.

    Thread-unsafe by design: the runner times stages from the dispatching
    (parent) process only, never from pool workers.
    """

    stages: dict[str, StageStats] = field(default_factory=dict)

    def record(
        self,
        name: str,
        seconds: float,
        *,
        items: int = 0,
        retries: int = 0,
        failures: int = 0,
        timeouts: int = 0,
    ) -> None:
        """Add ``seconds`` (and optional task/fault counts) to a stage."""
        stats = self.stages.setdefault(name, StageStats())
        stats.seconds += float(seconds)
        stats.calls += 1
        stats.items += int(items)
        stats.retries += int(retries)
        stats.failures += int(failures)
        stats.timeouts += int(timeouts)

    @contextmanager
    def stage(self, name: str, *, items: int = 0) -> Iterator[None]:
        """Time a ``with`` block under ``name``.

        With ``REPRO_PROFILE`` set, the block also runs under cProfile
        and dumps ``PROF_<name>.pstats`` next to the BENCH artifacts.
        """
        start = time.perf_counter()
        try:
            with maybe_profile(name):
                yield
        finally:
            self.record(name, time.perf_counter() - start, items=items)

    def reset(self) -> None:
        self.stages.clear()

    def as_dict(self) -> dict:
        return {name: stats.as_dict() for name, stats in self.stages.items()}

    def write_bench(
        self,
        name: str,
        *,
        directory: Path | str | None = None,
        extra: dict | None = None,
    ) -> Path:
        """Write the registry snapshot as ``BENCH_<name>.json``.

        Returns the path written. ``extra`` entries are merged into the
        top-level document (e.g. slot budgets, worker counts). The
        ``metrics`` section carries the :data:`repro.obs.metrics.METRICS`
        snapshot (counters, gauges, histograms) of this process; the
        timestamp is UTC ISO-8601 so artifacts sort and diff reliably
        across platforms.
        """
        out_dir = Path(directory) if directory is not None else artifact_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "name": name,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "knobs": knobs.resolved(),
            "stages": self.as_dict(),
            "metrics": METRICS.snapshot(),
        }
        if extra:
            doc.update(extra)
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path


#: Process-global registry the library's pipeline stages record into.
REGISTRY = TimingRegistry()


def record(
    name: str,
    seconds: float,
    *,
    items: int = 0,
    retries: int = 0,
    failures: int = 0,
    timeouts: int = 0,
) -> None:
    """Record into the global registry."""
    REGISTRY.record(
        name,
        seconds,
        items=items,
        retries=retries,
        failures=failures,
        timeouts=timeouts,
    )


@contextmanager
def stage(name: str, *, items: int = 0) -> Iterator[None]:
    """Time a block into the global registry."""
    with REGISTRY.stage(name, items=items):
        yield


def write_bench(
    name: str, *, directory: Path | str | None = None, extra: dict | None = None
) -> Path:
    """Snapshot the global registry to ``BENCH_<name>.json``."""
    return REGISTRY.write_bench(name, directory=directory, extra=extra)


__all__ = [
    "StageStats",
    "TimingRegistry",
    "REGISTRY",
    "record",
    "stage",
    "write_bench",
]
