"""The one observability sink: which record goes to which JSONL file.

Two optional streams share one per-process :class:`ObsState`:

``RUN`` (``REPRO_TRACE``)
    ``manifest``, ``span`` and ``event`` records from
    :mod:`repro.obs.trace`, written to ``RUN_<name>.jsonl``.
``TELEM`` (``REPRO_TELEM``)
    ``header`` and ``frame`` records from :mod:`repro.obs.telemetry`,
    written to ``TELEM_<name>.jsonl``.

A stream's file opens with its first record, preceded by the stream's
first line (the trace manifest, the telemetry header), which the
producer module registers in :data:`HEADS`; a stream that records
nothing leaves no file. :func:`emit` writes the record it is given
verbatim — producers coerce values themselves. :func:`finish` appends the
final :data:`~repro.obs.metrics.METRICS` snapshot as a ``metrics`` record
to each open file and closes it; a finished stream stays off until
:func:`reset`, so exit-path stragglers cannot start a second run in the
same file. One ``atexit`` hook finishes whatever is still open.

Cross-process: :class:`repro.exec.ParallelRunner` ships a
:class:`WorkerContext` inside each pool payload. The worker adopts it
(:func:`activate_worker`), buffers both streams' records in one list, and
returns them with its metrics snapshot in a :class:`TracedResult`
(:func:`drain_worker`); the parent routes each record by its ``type``
(:func:`absorb`). The state is keyed by pid: a forked process that was
never activated records nothing and never writes to its parent's files.

:func:`read` is the one parser of both file kinds. This module imports
neither :mod:`repro.obs.trace` nor :mod:`repro.obs.telemetry`.
"""

from __future__ import annotations

import atexit
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TextIO

from repro import knobs
from repro.errors import ReproError
from repro.obs.metrics import METRICS
from repro.obs.paths import run_target

#: Stream names; each is also its files' name prefix.
RUN = "RUN"
TELEM = "TELEM"

#: The stream each record type goes to; ``metrics`` goes to every stream.
ROUTES = {"manifest": RUN, "span": RUN, "event": RUN, "header": TELEM, "frame": TELEM}

#: First-line builders ``(state, run_name) -> record``, one per stream,
#: registered by the producer modules.
HEADS: dict[str, Callable[[ObsState, str], dict]] = {}


def target(stream: str) -> Path | None:
    """The file ``stream``'s knob selects, or ``None`` when it is off."""
    name = "REPRO_TRACE" if stream == RUN else "REPRO_TELEM"
    return run_target(knobs.get(name), stream)


@dataclass(eq=False)
class ObsState:
    """Per-process observability state: the open streams and trace context.

    ``buffer`` is ``None`` in a process that writes files and a list in an
    activated pool worker, where every stream appends to it.
    """

    trace_id: str = ""
    sample: float = 1.0
    #: Telemetry window length; the knob default when the stream is off
    #: (recorders still need one).
    interval: int = knobs.KNOBS["REPRO_TELEM_INTERVAL"].default
    parent: str | None = None
    buffer: list[dict] | None = None
    seq: int = 0
    extra: dict = field(default_factory=dict)
    streams: dict[str, Stream] = field(default_factory=dict)
    pid: int = field(default_factory=os.getpid)


@dataclass(eq=False)
class Stream:
    """One open stream: a lazily opened file, or its owner's worker buffer."""

    name: str
    owner: ObsState = field(repr=False)
    path: Path | None = None
    file: TextIO | None = None

    def write(self, record: dict) -> None:
        if self.owner.buffer is not None:
            self.owner.buffer.append(record)
            return
        if self.file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.file = self.path.open("a", encoding="utf-8")
            run = self.path.stem.removeprefix(f"{self.name}_")
            self._line(HEADS[self.name](self.owner, run))
        self._line(record)

    def _line(self, record: dict) -> None:
        self.file.write(json.dumps(record) + "\n")
        self.file.flush()


_STATE: ObsState | None = None


def _fresh() -> ObsState:
    run, telem = target(RUN), target(TELEM)
    st = ObsState(
        trace_id=uuid.uuid4().hex[:16] if run else "",
        sample=knobs.get("REPRO_TRACE_SAMPLE") if run else 1.0,
        interval=knobs.get("REPRO_TELEM_INTERVAL") if telem else ObsState.interval,
    )
    for name, path in ((RUN, run), (TELEM, telem)):
        if path is not None:
            st.streams[name] = Stream(name, st, path)
    return st


def state() -> ObsState:
    """This process's state, resolved from the knobs on first use."""
    global _STATE
    if _STATE is None:
        _STATE = _fresh()
    elif _STATE.pid != os.getpid():
        # A forked pool worker inherited the parent's state. Never write
        # to the parent's files from here: everything stays off until the
        # runner's trampoline calls activate_worker() with a context.
        _STATE = ObsState()
    return _STATE


def emit(record: dict) -> None:
    """Write ``record`` verbatim to the stream its ``type`` routes to, if open."""
    stream = state().streams.get(ROUTES[record["type"]])
    if stream is not None:
        stream.write(record)


# -- lifecycle -----------------------------------------------------------------------


def finish(*names: str) -> dict[str, Path]:
    """Close the named streams (default: all), each after a metrics record.

    Returns ``{stream: path}`` for every file written. A finished stream
    stays off for the rest of the process until :func:`reset`.
    """
    st = state()
    written: dict[str, Path] = {}
    for name in names or tuple(st.streams):
        stream = st.streams.pop(name, None)
        if stream is not None and stream.file is not None:
            trace = {"trace": st.trace_id} if name == RUN else {}
            t = round(time.time(), 6)
            stream._line({"type": "metrics", **trace, "t": t, **METRICS.snapshot()})
            stream.file.close()
            written[name] = stream.path
    return written


def _close_files() -> None:
    if _STATE is not None:
        for stream in state().streams.values():
            if stream.file is not None:
                stream.file.close()


def disable() -> None:
    """Turn every stream off for this process, whatever the knobs say.

    Readers (``repro obs``) call this first so their own spans and log
    mirrors can never append to the file under inspection.
    """
    global _STATE
    _close_files()
    _STATE = ObsState()


def reset() -> None:
    """Drop the state without writing; the knobs are re-read on next use."""
    global _STATE
    _close_files()
    _STATE = None


@atexit.register
def _finish_at_exit() -> None:
    if _STATE is None:
        return
    try:
        finish()
    except (OSError, ValueError):
        pass


# -- cross-process propagation -------------------------------------------------------


@dataclass(frozen=True)
class WorkerContext:
    """Ambient observability context, shipped inside pool-task payloads.

    ``trace_id`` is empty when tracing is off; ``telem_interval`` is 0
    when telemetry is off.
    """

    trace_id: str
    parent: str | None
    sample: float
    origin_pid: int
    telem_interval: int = 0


@dataclass(frozen=True)
class TracedResult:
    """What a pool task returns under a context: result, records, metrics."""

    result: Any
    records: tuple[dict, ...]
    metrics: dict


def worker_context() -> WorkerContext | None:
    """This process's context to ship, or ``None`` when every stream is off."""
    st = state()
    if not st.streams:
        return None
    tracing = RUN in st.streams
    return WorkerContext(
        trace_id=st.trace_id if tracing else "",
        parent=st.parent if tracing else None,
        sample=st.sample,
        origin_pid=st.pid,
        telem_interval=st.interval if TELEM in st.streams else 0,
    )


def in_origin(ctx: WorkerContext) -> bool:
    """True when running in the process that created ``ctx`` (serial path)."""
    return os.getpid() == ctx.origin_pid


def activate_worker(ctx: WorkerContext) -> None:
    """Adopt ``ctx`` in a pool worker: buffer its streams, reset metrics.

    Streams the context has off stay off, but the metrics registry is
    reset either way so the envelope's snapshot covers exactly this task.
    Each activation starts an empty buffer, so a worker serving several
    tasks (or retrying one) never leaks records into the next envelope;
    span ids (``pid.seq``) keep counting so they never collide.
    """
    global _STATE
    METRICS.reset()
    st = ObsState(
        trace_id=ctx.trace_id,
        sample=ctx.sample,
        interval=ctx.telem_interval or ObsState.interval,
        parent=ctx.parent,
        buffer=[],
    )
    st.seq = state().seq
    for name, on in ((RUN, ctx.trace_id), (TELEM, ctx.telem_interval)):
        if on:
            st.streams[name] = Stream(name, st)
    _STATE = st


def drain_worker(result: Any) -> TracedResult:
    """Envelope ``result`` with the records buffered since activation.

    The buffer is cleared; the envelope also carries this worker's
    metrics snapshot.
    """
    st = state()
    records = tuple(st.buffer or ())
    if st.buffer is not None:
        st.buffer = []
    return TracedResult(result=result, records=records, metrics=METRICS.snapshot())


def absorb(envelope: TracedResult) -> Any:
    """Route a worker's records into this process's streams; return its result."""
    for record in envelope.records:
        emit(record)
    METRICS.merge(envelope.metrics)
    return envelope.result


# -- the read side -------------------------------------------------------------------


@dataclass
class ObsDoc:
    """A parsed ``RUN``/``TELEM`` file, records bucketed by type."""

    path: Path
    stream: str | None = None
    head: dict | None = None  # the manifest or header
    spans: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    frames: list[dict] = field(default_factory=list)
    metrics: dict | None = None  # last metrics record wins
    malformed: int = 0


_BUCKETS = {"span": "spans", "event": "events", "frame": "frames"}


def read(path: Path | str, stream: str | None = None) -> ObsDoc:
    """Parse a ``RUN``/``TELEM`` JSONL file, tolerating damaged lines.

    ``stream=None`` routes on the first line: a ``header`` or ``frame``
    makes it a ``TELEM`` file, anything else a ``RUN`` file. Blank lines
    are skipped; lines that are not JSON objects, records of unknown type
    or of the other stream's types, and a repeated first-line record are
    counted in ``malformed``. Raises :class:`ReproError` for a missing
    file or one without a record of its stream.
    """
    path = Path(path)
    if not path.is_file():
        raise ReproError(f"obs file not found: {path}")
    doc = ObsDoc(path=path, stream=stream)
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            kind = record.get("type") if isinstance(record, dict) else None
            if doc.stream is None:
                doc.stream = TELEM if ROUTES.get(kind) == TELEM else RUN
            if kind == "metrics":
                doc.metrics = record
            elif ROUTES.get(kind) != doc.stream:
                doc.malformed += 1
            elif kind in _BUCKETS:
                getattr(doc, _BUCKETS[kind]).append(record)
            elif doc.head is None:
                doc.head = record
            else:
                doc.malformed += 1
    doc.stream = doc.stream or RUN
    if doc.head is None and not (doc.spans or doc.events or doc.frames):
        raise ReproError(f"no {doc.stream} records in {path}")
    return doc


__all__ = [
    "RUN",
    "TELEM",
    "ROUTES",
    "HEADS",
    "target",
    "ObsState",
    "state",
    "emit",
    "finish",
    "disable",
    "reset",
    "WorkerContext",
    "TracedResult",
    "worker_context",
    "in_origin",
    "activate_worker",
    "drain_worker",
    "absorb",
    "ObsDoc",
    "read",
]
