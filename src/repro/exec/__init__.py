"""Execution layer: parallel Monte-Carlo dispatch, fault tolerance, timing.

``ParallelRunner`` fans independent seeded experiments out over a process
pool (``REPRO_WORKERS``); :mod:`repro.exec.faults` supplies per-task
retry/timeout/skip semantics (``REPRO_ON_ERROR``, ``REPRO_MAX_RETRIES``,
``REPRO_TASK_TIMEOUT``) plus a deterministic fault injector
(``REPRO_FAULT_RATE``); :mod:`repro.exec.timing` accumulates per-stage
wall-clock and fault counts and snapshots them as ``BENCH_<name>.json``
artifacts.
"""

from repro.exec.faults import (
    ON_ERROR_MODES,
    FaultCounters,
    FaultPolicy,
    InjectedFault,
    TaskFailure,
    maybe_inject_fault,
    run_with_faults,
)
from repro.exec.runner import ParallelRunner, resolve_workers
from repro.exec.timing import (
    REGISTRY,
    StageStats,
    TimingRegistry,
    record,
    stage,
    write_bench,
)

__all__ = [
    "ParallelRunner",
    "resolve_workers",
    "ON_ERROR_MODES",
    "FaultCounters",
    "FaultPolicy",
    "InjectedFault",
    "TaskFailure",
    "maybe_inject_fault",
    "run_with_faults",
    "REGISTRY",
    "StageStats",
    "TimingRegistry",
    "record",
    "stage",
    "write_bench",
]
