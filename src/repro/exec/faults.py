"""Fault tolerance for the execution layer.

A multi-hour Monte-Carlo sweep must not lose every completed task to one
worker crash. This module gives :class:`repro.exec.ParallelRunner` a
:class:`FaultPolicy`: bounded per-task retries with exponential backoff,
per-task result timeouts, and an ``on_error`` mode deciding what happens
when a task exhausts its attempts —

``"raise"``
    fail fast (the pre-fault-layer behaviour): the first task exception
    propagates unchanged and the sweep aborts;
``"retry"``
    re-dispatch the task up to ``max_retries`` times, then re-raise;
``"skip"``
    re-dispatch likewise, then salvage the sweep by substituting a typed
    :class:`TaskFailure` sentinel (spec index, remote traceback, attempt
    count) for the lost result while every completed result is preserved.

Retries are **seed-stable**: a task derives its random stream from its
payload alone (``repro.rng.derive(seed, tag)``), never from worker or
attempt state, so a task that succeeds on its third attempt returns a
result bit-identical to one that succeeds immediately, and a retried
sweep is bit-identical to a fault-free serial run.

When the pool itself breaks (``BrokenProcessPool`` — an OOM-killed or
crashed worker), the dispatcher salvages every already-completed result
and degrades to in-process serial execution for the remainder instead of
discarding the run.

Failure paths are exercised deterministically through a seeded fault
injector: with ``fault_rate`` > 0 (or ``REPRO_FAULT_RATE`` in the
environment) each (task, attempt) pair raises :class:`InjectedFault`
with that probability, from a stream keyed by ``(fault_seed, index,
attempt)`` — so which attempts fail is reproducible, and an attempt that
failed will succeed on retry exactly when the keyed stream says so.

Caveats, stated honestly: ``concurrent.futures`` cannot kill a running
task, so ``timeout_s`` bounds the wall-clock the dispatcher *waits* for
each result (a hung worker keeps its pool slot until the task ends), and
on the serial path the timeout is enforced post-hoc — an overlong task
runs to completion but its result is discarded as timed out.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import knobs
from repro.errors import ConfigurationError, ExecutionError
from repro.obs import trace as obs_trace
from repro.rng import derive

#: Valid ``on_error`` modes.
ON_ERROR_MODES = knobs.KNOBS["REPRO_ON_ERROR"].choices

#: Result slot not yet filled (module-level so it pickles by reference).
_PENDING = object()


class InjectedFault(RuntimeError):
    """Deterministic fault raised by the injector.

    Deliberately *not* a :class:`ReproError`: injected faults must travel
    the same generic-crash path as a real worker exception.
    """


@dataclass(frozen=True)
class TaskFailure:
    """Typed sentinel standing in for a task lost under ``on_error="skip"``."""

    #: Position of the failed spec in the dispatched spec list.
    index: int
    #: Exception class name (e.g. ``"ValueError"``, ``"TimeoutError"``).
    error_type: str
    #: ``str(exception)`` of the final failed attempt.
    message: str
    #: Full formatted traceback, including the remote (worker) frames.
    traceback: str
    #: Attempts consumed (1 = failed on the first try with no retries).
    attempts: int
    #: True when the final failure was a timeout rather than an exception.
    timed_out: bool = False


@dataclass
class FaultCounters:
    """Per-dispatch fault accounting, surfaced into the timing registry."""

    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    pool_breaks: int = 0


@dataclass(frozen=True)
class FaultPolicy:
    """What the dispatcher does when a task fails.

    The default policy is fault-intolerant (``on_error="raise"``, no
    timeout, no injection) and keeps the pre-fault-layer semantics: the
    first task exception propagates unchanged.
    """

    on_error: str = "raise"
    #: Re-dispatches allowed per task beyond the first attempt. Ignored
    #: under ``on_error="raise"`` (fail fast).
    max_retries: int = 2
    #: Per-task result-wait budget in seconds; ``None`` waits forever.
    timeout_s: float | None = None
    #: First-retry backoff; doubles (``backoff_factor``) per further retry.
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    #: Probability each (task, attempt) raises :class:`InjectedFault`.
    fault_rate: float = 0.0
    #: Seed of the injector's random stream.
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ConfigurationError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.backoff_s < 0 or self.backoff_factor < 1:
            raise ConfigurationError("backoff_s must be >= 0 and backoff_factor >= 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigurationError(
                f"fault_rate must be in [0, 1], got {self.fault_rate}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a task may consume under this policy."""
        return 1 if self.on_error == "raise" else 1 + self.max_retries

    @property
    def is_passthrough(self) -> bool:
        """True when the policy changes nothing about plain dispatch."""
        return (
            self.on_error == "raise"
            and self.timeout_s is None
            and self.fault_rate == 0.0
        )

    def backoff_for(self, failed_attempts: int) -> float:
        """Backoff before re-dispatching after ``failed_attempts`` failures."""
        return self.backoff_s * self.backoff_factor ** max(0, failed_attempts - 1)

    @classmethod
    def from_env(
        cls,
        *,
        on_error: str | None = None,
        max_retries: int | None = None,
        timeout_s: float | None = None,
    ) -> "FaultPolicy":
        """Build a policy from ``REPRO_*`` env vars, with explicit overrides.

        Explicit arguments beat the environment; unset (or empty) env vars
        fall back to the knob defaults, which are the dataclass defaults.
        """
        return cls(
            on_error=knobs.get("REPRO_ON_ERROR", on_error),
            max_retries=knobs.get("REPRO_MAX_RETRIES", max_retries),
            timeout_s=knobs.get("REPRO_TASK_TIMEOUT", timeout_s),
            fault_rate=knobs.get("REPRO_FAULT_RATE"),
            fault_seed=knobs.get("REPRO_FAULT_SEED"),
        )


def maybe_inject_fault(index: int, attempt: int, rate: float, seed: int) -> None:
    """Raise :class:`InjectedFault` with probability ``rate``.

    The draw comes from a stream keyed by ``(seed, index, attempt)`` so the
    injection pattern is identical in every worker and on every re-run,
    and a failed attempt's retry re-rolls a *different* (but equally
    deterministic) draw.
    """
    if rate <= 0.0:
        return
    rng = derive(seed, f"fault[{index}]@{attempt}")
    if rng.random() < rate:
        raise InjectedFault(f"injected fault in task {index} (attempt {attempt})")


def _guarded_task(payload: tuple) -> Any:
    """Pool trampoline: run the fault injector, then the task itself."""
    task_fn, spec, index, attempt, rate, seed = payload
    maybe_inject_fault(index, attempt, rate, seed)
    return task_fn(spec)


def _failure_from(
    index: int, exc: BaseException, attempts: int, *, timed_out: bool = False
) -> TaskFailure:
    """Snapshot an exception (with remote frames, if any) as a sentinel."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return TaskFailure(
        index=index,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback=tb,
        attempts=attempts,
        timed_out=timed_out,
    )


def _settle_failure(
    index: int,
    exc: BaseException,
    attempts: int,
    policy: FaultPolicy,
    counters: FaultCounters,
    results: list,
    *,
    timed_out: bool = False,
) -> bool:
    """Decide a failed attempt's fate: True = retry, False = settled.

    Settling means either recording a :class:`TaskFailure` sentinel
    (``on_error="skip"``) or raising (``"raise"``/``"retry"`` exhausted).
    """
    if attempts < policy.max_attempts:
        counters.retries += 1
        obs_trace.event(
            "exec.retry",
            task=index,
            attempt=attempts,
            error=type(exc).__name__,
            timed_out=timed_out,
        )
        return True
    counters.failures += 1
    obs_trace.event(
        "exec.task_failed",
        task=index,
        attempts=attempts,
        error=type(exc).__name__,
        timed_out=timed_out,
        settled=policy.on_error == "skip",
    )
    if policy.on_error == "skip":
        results[index] = _failure_from(index, exc, attempts, timed_out=timed_out)
        return False
    if timed_out:
        raise ExecutionError(
            f"task {index} timed out after {attempts} attempt(s) "
            f"(budget {policy.timeout_s}s)"
        ) from exc
    raise exc


def _serial_phase(
    task_fn: Callable[[Any], Any],
    specs: Sequence[Any],
    results: list,
    attempts: list[int],
    todo: Sequence[int],
    policy: FaultPolicy,
    counters: FaultCounters,
) -> None:
    """Run ``todo`` in-process, honouring retry/timeout/skip semantics."""
    rate, fault_seed = policy.fault_rate, policy.fault_seed
    for i in todo:
        while results[i] is _PENDING:
            attempt = attempts[i] + 1
            if attempt > 1:
                time.sleep(policy.backoff_for(attempt - 1))
            start = time.monotonic()
            try:
                value = _guarded_task((task_fn, specs[i], i, attempt, rate, fault_seed))
            except Exception as exc:
                attempts[i] = attempt
                if not _settle_failure(i, exc, attempt, policy, counters, results):
                    break
                continue
            elapsed = time.monotonic() - start
            attempts[i] = attempt
            if policy.timeout_s is not None and elapsed > policy.timeout_s:
                # Post-hoc enforcement: the task cannot be pre-empted
                # in-process, so the overrun result is discarded instead.
                counters.timeouts += 1
                obs_trace.event(
                    "exec.timeout", task=i, elapsed=elapsed, budget=policy.timeout_s
                )
                err = TimeoutError(
                    f"task {i} ran {elapsed:.3f}s, budget {policy.timeout_s}s"
                )
                if not _settle_failure(
                    i, err, attempt, policy, counters, results, timed_out=True
                ):
                    break
                continue
            results[i] = value


def _pool_phase(
    task_fn: Callable[[Any], Any],
    specs: Sequence[Any],
    results: list,
    attempts: list[int],
    todo: list[int],
    workers: int,
    policy: FaultPolicy,
    counters: FaultCounters,
) -> list[int]:
    """Dispatch ``todo`` over a pool; returns indices left for serial rescue.

    The return value is non-empty only when the pool broke: completed
    results have already been collected, and the unresolved remainder is
    handed to :func:`_serial_phase` by the caller.
    """
    rate, fault_seed = policy.fault_rate, policy.fault_seed
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while todo:
            futures: dict[int, Any] = {}
            broken = False
            try:
                for i in todo:
                    futures[i] = pool.submit(
                        _guarded_task,
                        (task_fn, specs[i], i, attempts[i] + 1, rate, fault_seed),
                    )
            except BrokenProcessPool:
                # A worker died while this round was still being
                # submitted; salvage whatever already finished below and
                # hand the rest to the serial rescue.
                broken = True
            retry: list[int] = []
            for i, fut in futures.items():
                if broken:
                    # The pool already broke; salvage futures that finished
                    # before the break, leave the rest pending.
                    if fut.done() and not fut.cancelled():
                        try:
                            results[i] = fut.result(timeout=0)
                            attempts[i] += 1
                        except Exception:
                            pass
                    continue
                try:
                    value = fut.result(timeout=policy.timeout_s)
                except FuturesTimeoutError:
                    fut.cancel()
                    counters.timeouts += 1
                    attempts[i] += 1
                    obs_trace.event("exec.timeout", task=i, budget=policy.timeout_s)
                    err = TimeoutError(
                        f"task {i}: no result within {policy.timeout_s}s"
                    )
                    if _settle_failure(
                        i, err, attempts[i], policy, counters, results, timed_out=True
                    ):
                        retry.append(i)
                except BrokenProcessPool:
                    # Worker death is not charged as a task attempt: the
                    # victim task is usually innocent (another task's OOM).
                    broken = True
                except Exception as exc:
                    attempts[i] += 1
                    if _settle_failure(i, exc, attempts[i], policy, counters, results):
                        retry.append(i)
                else:
                    attempts[i] += 1
                    results[i] = value
            if broken:
                counters.pool_breaks += 1
                rescue = [i for i in range(len(specs)) if results[i] is _PENDING]
                obs_trace.event(
                    "exec.degrade",
                    reason="broken-pool",
                    rescued=len(rescue),
                    completed=len(specs) - len(rescue),
                )
                return rescue
            todo = retry
            if todo:
                time.sleep(max(policy.backoff_for(attempts[i]) for i in todo))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return []


def run_with_faults(
    task_fn: Callable[[Any], Any],
    specs: Sequence[Any],
    *,
    workers: int,
    policy: FaultPolicy,
    counters: FaultCounters,
) -> list:
    """Map ``task_fn`` over ``specs`` under ``policy``; results in spec order.

    Failed tasks come back as :class:`TaskFailure` sentinels under
    ``on_error="skip"``; otherwise a permanent failure raises (the
    original exception for crashes, :class:`ExecutionError` for
    timeouts). A broken pool degrades to serial execution of whatever is
    unresolved, keeping every completed result.
    """
    spec_list = list(specs)
    results: list = [_PENDING] * len(spec_list)
    attempts = [0] * len(spec_list)
    todo = list(range(len(spec_list)))
    if workers > 1 and len(spec_list) > 1:
        todo = _pool_phase(
            task_fn, spec_list, results, attempts, todo, workers, policy, counters
        )
    _serial_phase(task_fn, spec_list, results, attempts, todo, policy, counters)
    return results


__all__ = [
    "ON_ERROR_MODES",
    "InjectedFault",
    "TaskFailure",
    "FaultCounters",
    "FaultPolicy",
    "maybe_inject_fault",
    "run_with_faults",
]
