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

Records go through :mod:`repro.obs.sink`, which also carries them back
from :class:`repro.exec.ParallelRunner` pool workers: one trace file per
run, worker spans parented under the dispatch span, same trace id
throughout.
"""

from __future__ import annotations

import math
import platform
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator

from repro import knobs
from repro.obs import sink
from repro.obs.sink import ObsState, disable, reset


def enabled() -> bool:
    """True when this process is currently recording trace data."""
    return sink.RUN in sink.state().streams


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


def _manifest_record(state: ObsState, run: str) -> dict:
    return {
        "type": "manifest",
        "run": run,
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


sink.HEADS[sink.RUN] = _manifest_record


# -- the recording API ---------------------------------------------------------------


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[str | None]:
    """Record a hierarchical span around a ``with`` block.

    Yields the span id (or ``None`` when tracing is off). Nested spans
    parent automatically; events fired inside attach to the innermost
    open span.
    """
    state = sink.state()
    if sink.RUN not in state.streams:
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
        sink.emit(
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
    state = sink.state()
    if sink.RUN not in state.streams:
        return
    state.seq += 1
    if state.sample < 1.0 and not _keep(state.trace_id, state.seq, state.sample):
        return
    sink.emit(
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
    state = sink.state()
    if sink.RUN not in state.streams:
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
    return sink.finish(sink.RUN).get(sink.RUN)


__all__ = [
    "enabled",
    "span",
    "event",
    "start_run",
    "finish_run",
    "disable",
    "reset",
]
