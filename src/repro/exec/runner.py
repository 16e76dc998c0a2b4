"""Process-pool Monte-Carlo runner with deterministic per-task seeding.

Paper-figure workloads are fan-outs of *independent* seeded experiments
(one task per sweep point, per scheme, per training seed). The runner maps
a picklable task function over a spec list, dispatching chunks to a
process pool and reassembling results in spec order. With one worker it
degenerates to a plain in-process loop — no pool, no pickling — so the
serial path is bit-identical to calling ``task_fn`` yourself; and because
every task derives its own random stream from ``(seed, tag)`` rather than
sharing parent state, the aggregate results are identical for any worker
count.

Worker-count resolution (first match wins):

1. an explicit ``workers=`` argument,
2. the ``REPRO_WORKERS`` environment variable (``auto`` or ``0`` means
   one worker per CPU; empty/whitespace-only counts as unset),
3. serial (1 worker).

Failure semantics are governed by a :class:`repro.exec.faults.FaultPolicy`
(``policy=`` argument, defaulting to the ``REPRO_ON_ERROR`` /
``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT`` / ``REPRO_FAULT_RATE``
environment): per-task retries re-dispatch the identical payload (so
retried results are bit-identical), ``on_error="skip"`` salvages partial
sweeps as :class:`repro.exec.faults.TaskFailure` sentinels, and a broken
pool degrades to serial execution instead of discarding completed work.
Retry/failure/timeout counts land in the timing registry and hence in the
``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from repro import knobs
from repro.exec.faults import FaultCounters, FaultPolicy, run_with_faults
from repro.exec.timing import REGISTRY, TimingRegistry
from repro.obs import sink
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.obs.profile import maybe_profile


def resolve_workers(workers: int | str | None = None) -> int:
    """Resolve a worker count from an argument or ``REPRO_WORKERS``."""
    return knobs.get("REPRO_WORKERS", workers)


def _traced_task(payload: tuple) -> Any:
    """Pool trampoline carrying the parent's observability context.

    In a pool worker: adopt the shipped context (same trace id, spans
    parented under the dispatch span), buffer everything the task
    records, and return a :class:`repro.obs.sink.TracedResult` envelope
    for the parent to absorb. On the serial/rescue path (same process as
    the dispatcher) the ambient context is already live, so the task runs
    under a plain span and the result passes through unwrapped.
    """
    task_fn, spec, ctx = payload
    if sink.in_origin(ctx):
        with obs_trace.span("exec/task"):
            return task_fn(spec)
    sink.activate_worker(ctx)
    with obs_trace.span("exec/task"):
        result = task_fn(spec)
    return sink.drain_worker(result)


class ParallelRunner:
    """Map a task function over independent specs, serially or via a pool.

    Parameters
    ----------
    workers:
        Pool size; ``None`` defers to ``REPRO_WORKERS`` (default serial).
    name:
        Stage name recorded in the timing registry for each ``map`` call.
    registry:
        Timing registry to record into (the global one by default).
    policy:
        Fault policy; ``None`` defers to the ``REPRO_ON_ERROR`` /
        ``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT`` /
        ``REPRO_FAULT_RATE`` environment (default: fail fast).
    """

    def __init__(
        self,
        workers: int | str | None = None,
        *,
        name: str = "map",
        registry: TimingRegistry | None = None,
        policy: FaultPolicy | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.name = name
        self.registry = registry if registry is not None else REGISTRY
        self.policy = policy if policy is not None else FaultPolicy.from_env()

    def map(self, task_fn: Callable[[Any], Any], specs: Iterable[Any]) -> list:
        """Apply ``task_fn`` to every spec; results come back in spec order.

        ``task_fn`` must be a module-level callable and specs picklable
        when more than one worker is in play; the serial path has no such
        constraint. Under ``policy.on_error == "skip"``, failed specs
        yield :class:`repro.exec.faults.TaskFailure` sentinels in place.
        """
        specs = list(specs)
        counters = FaultCounters()
        METRICS.inc("exec.dispatches")
        METRICS.inc("exec.tasks", len(specs))
        start = time.perf_counter()
        try:
            with obs_trace.span(
                "exec/dispatch",
                stage=self.name,
                specs=len(specs),
                workers=min(self.workers, max(len(specs), 1)),
            ):
                with maybe_profile(self.name):
                    return self._dispatch(task_fn, specs, counters)
        finally:
            seconds = time.perf_counter() - start
            self.registry.record(
                self.name,
                seconds,
                items=len(specs),
                retries=counters.retries,
                failures=counters.failures,
                timeouts=counters.timeouts,
            )
            METRICS.observe("exec.dispatch_seconds", seconds)
            for key, value in (
                ("exec.retries", counters.retries),
                ("exec.failures", counters.failures),
                ("exec.timeouts", counters.timeouts),
                ("exec.pool_breaks", counters.pool_breaks),
            ):
                if value:
                    METRICS.inc(key, value)

    def _dispatch(
        self,
        task_fn: Callable[[Any], Any],
        specs: Sequence[Any],
        counters: FaultCounters,
    ) -> list:
        workers = min(self.workers, len(specs))
        # With tracing or telemetry active and a pool in play, ship the
        # ambient context inside every payload so worker-side spans,
        # events, metrics, and telemetry frames come back with the
        # results and merge into the parent's sinks. With both off the
        # payloads are untouched.
        ctx = sink.worker_context() if workers > 1 else None
        if ctx is not None:
            specs = [(task_fn, spec, ctx) for spec in specs]
            task_fn = _traced_task
        results = self._raw_dispatch(task_fn, specs, workers, counters)
        if ctx is not None:
            # TaskFailure sentinels and serial-path results pass through.
            results = [
                sink.absorb(r) if isinstance(r, sink.TracedResult) else r
                for r in results
            ]
        return results

    def _raw_dispatch(
        self,
        task_fn: Callable[[Any], Any],
        specs: Sequence[Any],
        workers: int,
        counters: FaultCounters,
    ) -> list:
        if self.policy.is_passthrough:
            if workers <= 1:
                # Serial fallback: same function, same order, same process.
                return [task_fn(spec) for spec in specs]
            # ~4 chunks per worker: amortises pickling without starving
            # the tail. A fault policy dispatches per task instead, so
            # each task can be retried, timed out or skipped on its own.
            chunksize = max(1, -(-len(specs) // (4 * workers)))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(task_fn, specs, chunksize=chunksize))
        return run_with_faults(
            task_fn, specs, workers=workers, policy=self.policy, counters=counters
        )


__all__ = ["resolve_workers", "ParallelRunner"]
