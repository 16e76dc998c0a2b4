"""Hierarchical spans and structured events, streamed as ``RUN_*.jsonl``.

Tracing is **off by default** and costs one attribute check per call when
off, so instrumented hot paths stay within noise of their uninstrumented
selves. Setting ``REPRO_TRACE`` turns it on:

* ``REPRO_TRACE=smoke`` writes ``RUN_smoke.jsonl`` next to the BENCH
  artifacts (``$REPRO_BENCH_DIR``, default ``benchmarks/results/``);
* ``REPRO_TRACE=/tmp/t.jsonl`` (any value containing a path separator or
  ending in ``.jsonl``) writes to that exact path;
* ``REPRO_TRACE=1`` uses the default run name ``run``.

``REPRO_TRACE_SAMPLE`` (a float in ``(0, 1]``, default 1) keeps that
fraction of *event* records — spans, the manifest, and the final metrics
snapshot are always written. Sampling decisions hash the trace id and a
per-process sequence number; they never touch a simulation random stream,
so tracing (at any sample rate) cannot alter experiment results.

Record types, one JSON object per line:

``manifest``
    first line of every trace: run name, trace id, UTC time, git SHA,
    platform/python, argv, the ``REPRO_*`` environment, and anything the
    entry point passed to :func:`start_run` (config, seeds, ...).
``span``
    one closed span: ``id``, ``parent`` (id or null), ``name``, ``t0``
    (epoch seconds), ``dur`` (seconds), free-form ``attrs``. Written on
    exit, so children precede parents in the file.
``event``
    a point-in-time observation attached to the enclosing span
    (``span`` field), with free-form ``fields`` and a ``seq`` number.
``metrics``
    the final :data:`repro.obs.metrics.METRICS` snapshot, written by
    :func:`finish_run` (or at interpreter exit).

Cross-process propagation: :class:`repro.exec.ParallelRunner` snapshots
the ambient context (:func:`worker_context`), ships it inside each task
payload, and the pool-side trampoline activates a *buffering* state
(:func:`activate_worker`) whose records return with the result and are
merged into the parent's file (:func:`absorb`) — one trace file per run,
worker spans parented under the dispatch span, same trace id throughout.
A forked worker that was never activated keeps tracing disabled rather
than corrupting the parent's file.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import platform
import subprocess
import sys
import time
import uuid
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, TextIO

from repro import knobs
from repro.obs import telemetry as obs_telemetry
from repro.obs.metrics import METRICS
from repro.obs.paths import run_target

#: Environment variable enabling tracing (run name, path, or truthy flag).
TRACE_ENV = "REPRO_TRACE"

#: Environment variable setting the event sampling rate (float in (0, 1]).
SAMPLE_ENV = "REPRO_TRACE_SAMPLE"

def trace_target() -> Path | None:
    """Trace file selected by ``REPRO_TRACE``, or ``None`` when disabled."""
    return run_target(knobs.get(TRACE_ENV), "RUN")


def sample_rate() -> float:
    """Event sampling rate from ``REPRO_TRACE_SAMPLE`` (default: keep all)."""
    return knobs.get(SAMPLE_ENV)


class _TraceState:
    """Per-process trace state (file sink in the parent, buffer in workers)."""

    __slots__ = (
        "enabled",
        "pid",
        "trace_id",
        "sample",
        "path",
        "file",
        "buffer",
        "parent",
        "seq",
        "extra",
    )

    def __init__(
        self,
        *,
        enabled: bool,
        pid: int,
        trace_id: str = "",
        sample: float = 1.0,
        path: Path | None = None,
        buffer: list[dict] | None = None,
        parent: str | None = None,
    ) -> None:
        self.enabled = enabled
        self.pid = pid
        self.trace_id = trace_id
        self.sample = sample
        self.path = path
        self.file: TextIO | None = None
        self.buffer = buffer
        self.parent = parent
        self.seq = 0
        self.extra: dict = {}


_STATE: _TraceState | None = None


def _fresh_state() -> _TraceState:
    target = trace_target()
    if target is None:
        return _TraceState(enabled=False, pid=os.getpid())
    return _TraceState(
        enabled=True,
        pid=os.getpid(),
        trace_id=uuid.uuid4().hex[:16],
        sample=sample_rate(),
        path=target,
    )


def _state() -> _TraceState:
    global _STATE
    if _STATE is None:
        _STATE = _fresh_state()
    elif _STATE.pid != os.getpid():
        # A forked pool worker inherited the parent's state. Never write
        # to the parent's file from here: tracing stays off until the
        # runner's trampoline calls activate_worker() with an envelope.
        _STATE = _TraceState(enabled=False, pid=os.getpid())
    return _STATE


def enabled() -> bool:
    """True when this process is currently recording trace data."""
    return _state().enabled


def current_trace_id() -> str | None:
    state = _state()
    return state.trace_id if state.enabled else None


# -- serialisation ------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Coerce attribute/field values to JSON-safe types (NaN/inf -> null)."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _manifest_record(state: _TraceState) -> dict:
    name = state.path.stem if state.path is not None else "run"
    if name.startswith("RUN_"):
        name = name[4:]
    return {
        "type": "manifest",
        "run": name,
        "trace": state.trace_id,
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "argv": list(sys.argv),
        "pid": state.pid,
        "sample": state.sample,
        "env": knobs.environ(),
        "knobs": _jsonable(knobs.resolved()),
        **_jsonable(state.extra),
    }


def _metrics_record(state: _TraceState) -> dict:
    return {
        "type": "metrics",
        "trace": state.trace_id,
        "t": round(time.time(), 6),
        **METRICS.snapshot(),
    }


def _open_sink(state: _TraceState) -> None:
    assert state.path is not None
    state.path.parent.mkdir(parents=True, exist_ok=True)
    state.file = state.path.open("a", encoding="utf-8")
    state.file.write(json.dumps(_manifest_record(state)) + "\n")
    state.file.flush()


def _emit(state: _TraceState, record: dict) -> None:
    if state.buffer is not None:
        state.buffer.append(record)
        return
    if state.file is None:
        _open_sink(state)
    state.file.write(json.dumps(record) + "\n")
    state.file.flush()


# -- the recording API ---------------------------------------------------------------


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[str | None]:
    """Record a hierarchical span around a ``with`` block.

    Yields the span id (or ``None`` when tracing is off). Nested spans
    parent automatically; events fired inside attach to the innermost
    open span.
    """
    state = _state()
    if not state.enabled:
        yield None
        return
    state.seq += 1
    sid = f"{state.pid:x}.{state.seq:x}"
    parent = state.parent
    state.parent = sid
    t0 = time.time()
    start = time.perf_counter()
    try:
        yield sid
    finally:
        state.parent = parent
        _emit(
            state,
            {
                "type": "span",
                "trace": state.trace_id,
                "id": sid,
                "parent": parent,
                "name": name,
                "t0": round(t0, 6),
                "dur": round(time.perf_counter() - start, 9),
                "attrs": _jsonable(attrs),
            },
        )


def _keep(trace_id: str, seq: int, rate: float) -> bool:
    digest = zlib.crc32(f"{trace_id}:{seq}".encode("ascii"))
    return digest / 0xFFFFFFFF < rate


def event(name: str, **fields: Any) -> None:
    """Record a point-in-time event (subject to ``REPRO_TRACE_SAMPLE``)."""
    state = _state()
    if not state.enabled:
        return
    state.seq += 1
    if state.sample < 1.0 and not _keep(state.trace_id, state.seq, state.sample):
        return
    _emit(
        state,
        {
            "type": "event",
            "trace": state.trace_id,
            "span": state.parent,
            "name": name,
            "t": round(time.time(), 6),
            "seq": state.seq,
            "fields": _jsonable(fields),
        },
    )


# -- run lifecycle -------------------------------------------------------------------


def start_run(**extra: Any) -> bool:
    """Attach manifest context (config, seeds, ...) to the current run.

    Returns True when tracing is enabled. The manifest itself is written
    lazily with the first record, so a traced process that never records
    anything leaves no file behind.
    """
    state = _state()
    if not state.enabled:
        return False
    state.extra.update(extra)
    return True


def finish_run() -> Path | None:
    """Write the final metrics snapshot and close the trace file.

    Returns the trace path when a file was written, else ``None``.
    Tracing stays *disabled* for the rest of the process afterwards —
    late stragglers (exit-path log lines, atexit hooks) must not start a
    second trace in the same file. Tests use :func:`reset` to re-arm.
    """
    global _STATE
    state = _state()
    path: Path | None = None
    if state.enabled and state.file is not None:
        _emit(state, _metrics_record(state))
        state.file.close()
        path = state.path
    _STATE = _TraceState(enabled=False, pid=os.getpid())
    return path


def disable() -> None:
    """Turn tracing off for this process regardless of ``REPRO_TRACE``.

    Trace *readers* (``repro obs``) call this first thing so their own
    spans and log mirrors can never append to the file under inspection.
    """
    global _STATE
    if _STATE is not None and _STATE.file is not None:
        _STATE.file.close()
    _STATE = _TraceState(enabled=False, pid=os.getpid())


def reset() -> None:
    """Drop trace state without writing (tests re-read the env lazily)."""
    global _STATE
    if _STATE is not None and _STATE.file is not None:
        _STATE.file.close()
    _STATE = None


@atexit.register
def _close_at_exit() -> None:
    state = _STATE
    if state is not None and state.file is not None:
        try:
            _emit(state, _metrics_record(state))
            state.file.close()
        except (OSError, ValueError):
            pass


# -- cross-process propagation -------------------------------------------------------


@dataclass(frozen=True)
class WorkerContext:
    """Ambient observability context, snapshotted into pool-task payloads.

    ``trace_id`` is empty when only telemetry (not tracing) is active;
    ``telem_interval`` is 0 when telemetry is off in the parent.
    """

    trace_id: str
    parent: str | None
    sample: float
    origin_pid: int
    telem_interval: int = 0


@dataclass(frozen=True)
class TracedResult:
    """Envelope a traced pool task returns: result + buffered telemetry."""

    result: Any
    records: tuple[dict, ...]
    metrics: dict
    telemetry: tuple = ()


def worker_context() -> WorkerContext | None:
    """Snapshot of the current context, or ``None`` when fully off.

    Returns a context when tracing **or** telemetry is active — either
    one needs the pool envelope (buffered records / frames plus the
    worker metrics snapshot) shipped back to the parent.
    """
    state = _state()
    telem_interval = obs_telemetry.worker_interval()
    if not state.enabled and telem_interval == 0:
        return None
    return WorkerContext(
        trace_id=state.trace_id if state.enabled else "",
        parent=state.parent if state.enabled else None,
        sample=state.sample,
        origin_pid=state.pid,
        telem_interval=telem_interval,
    )


def in_origin(ctx: WorkerContext) -> bool:
    """True when running in the process that created ``ctx`` (serial path)."""
    return os.getpid() == ctx.origin_pid


def activate_worker(ctx: WorkerContext) -> None:
    """Adopt ``ctx`` in a pool worker: buffer records, reset worker metrics.

    An empty ``ctx.trace_id`` (telemetry-only run) leaves tracing off in
    the worker while still resetting the metrics registry and arming the
    telemetry frame buffer, so the envelope's metrics snapshot covers
    exactly this task.
    """
    global _STATE
    METRICS.reset()
    obs_telemetry.activate_worker(ctx.telem_interval)
    # Span ids are ``pid.seq``; a worker serving several tasks must keep
    # counting across activations or its spans would collide in the file.
    prev = _state()
    state = _TraceState(
        enabled=bool(ctx.trace_id),
        pid=os.getpid(),
        trace_id=ctx.trace_id,
        sample=ctx.sample,
        buffer=[] if ctx.trace_id else None,
        parent=ctx.parent,
    )
    state.seq = prev.seq
    _STATE = state


def drain_worker() -> tuple[dict, ...]:
    """Take (and clear) the records buffered since :func:`activate_worker`."""
    state = _state()
    records = tuple(state.buffer or ())
    if state.buffer is not None:
        state.buffer = []
    return records


def absorb(records: tuple[dict, ...] | list[dict]) -> None:
    """Write worker-buffered records into this process's sink."""
    state = _state()
    if not state.enabled:
        return
    for record in records:
        _emit(state, record)


__all__ = [
    "TRACE_ENV",
    "SAMPLE_ENV",
    "trace_target",
    "sample_rate",
    "enabled",
    "current_trace_id",
    "span",
    "event",
    "start_run",
    "finish_run",
    "disable",
    "reset",
    "WorkerContext",
    "TracedResult",
    "worker_context",
    "in_origin",
    "activate_worker",
    "drain_worker",
    "absorb",
]
