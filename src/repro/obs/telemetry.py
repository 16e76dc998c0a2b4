"""Windowed time-series telemetry, streamed as ``TELEM_*.jsonl``.

The trace layer (:mod:`repro.obs.trace`) answers "what happened, in what
order"; the metrics registry answers "how much, in total". This module is
the third leg: **how did it evolve** — bounded, windowed time series of
the quantities the paper plots per slot/episode (jam rate, goodput,
negotiation latency, duty-cycle tokens), cheap enough to leave on during
multi-thousand-network grid runs and mergeable across shard workers
without breaking bit-identity.

Telemetry is **off by default** and costs one attribute check when off.
``REPRO_TELEM`` switches it on with the same target grammar as
``REPRO_TRACE``:

* ``REPRO_TELEM=smoke`` writes ``TELEM_smoke.jsonl`` next to the BENCH
  artifacts (``$REPRO_BENCH_DIR``, default ``benchmarks/results/``);
* ``REPRO_TELEM=/tmp/t.jsonl`` (a path separator or ``.jsonl`` suffix)
  writes to that exact path;
* ``REPRO_TELEM=1`` uses the default name ``run``.

``REPRO_TELEM_INTERVAL`` sets the window length in slots/episodes
(default 20); ``REPRO_TELEM_WINDOW`` bounds the in-memory ring of a
:class:`FlightRecorder` (default 256 frames).

Record types, one JSON object per line:

``header``
    first line: run name, UTC time, interval, the ``REPRO_*`` env.
``frame``
    one completed window. Generic frames (training loops) carry a
    ``values`` dict of sums over the window's ticks. Field frames
    (``series == "field"``) carry **per-network integer arrays** plus
    per-network float sums — see :func:`field_frame` — so merging across
    shards is pure placement and integer addition, which is
    order-independent: the merged series is bit-identical for any
    ``REPRO_SHARDS``/``REPRO_WORKERS`` setting even though the raw line
    order in the file differs.
``metrics``
    the final labelled :data:`repro.obs.metrics.METRICS` snapshot,
    written by :func:`finish_run`.

Cross-process: the :class:`repro.exec.ParallelRunner` envelope carries a
``telem_interval`` next to the trace context; the pool trampoline calls
:func:`activate_worker`, frames buffer in the worker, return inside the
:class:`~repro.obs.trace.TracedResult`, and the parent appends them via
:func:`absorb`. A retried task's failed attempt never returns an
envelope, and :func:`merge_frames` additionally dedupes on
``(series, window, shard)`` last-wins, so fault-policy retries cannot
double-count a window. Telemetry never touches a simulation random
stream: engine results are bit-identical with telemetry on or off.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping, TextIO

from repro import knobs
from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import DEFAULT_BUCKETS, METRICS
from repro.obs.paths import run_target

TELEM_ENV = "REPRO_TELEM"
TELEM_INTERVAL_ENV = "REPRO_TELEM_INTERVAL"
TELEM_WINDOW_ENV = "REPRO_TELEM_WINDOW"

#: Default window length (slots or episodes per frame).
DEFAULT_INTERVAL = knobs.KNOBS[TELEM_INTERVAL_ENV].default

#: Default ring capacity (frames kept in memory per recorder).
DEFAULT_RING = knobs.KNOBS[TELEM_WINDOW_ENV].default

#: Bucket bounds of the per-window negotiation-latency histogram carried
#: by field frames. Fixed globally so shard-side bucket counts (integers)
#: merge by plain addition.
LATENCY_BUCKETS: tuple[float, ...] = DEFAULT_BUCKETS


def telem_target() -> Path | None:
    """Telemetry file selected by ``REPRO_TELEM``, or ``None`` when off."""
    return run_target(knobs.get(TELEM_ENV), "TELEM")


def telem_interval() -> int:
    """Window length from ``REPRO_TELEM_INTERVAL`` (default 20)."""
    return knobs.get(TELEM_INTERVAL_ENV)


def telem_window() -> int:
    """Ring capacity from ``REPRO_TELEM_WINDOW`` (default 256)."""
    return knobs.get(TELEM_WINDOW_ENV)


class _TelemState:
    """Per-process telemetry state (file sink in the parent, buffer in workers)."""

    __slots__ = ("enabled", "pid", "interval", "path", "file", "buffer")

    def __init__(
        self,
        *,
        enabled: bool,
        pid: int,
        interval: int = DEFAULT_INTERVAL,
        path: Path | None = None,
        buffer: list[dict] | None = None,
    ) -> None:
        self.enabled = enabled
        self.pid = pid
        self.interval = interval
        self.path = path
        self.file: TextIO | None = None
        self.buffer = buffer


_STATE: _TelemState | None = None


def _fresh_state() -> _TelemState:
    target = telem_target()
    if target is None:
        return _TelemState(enabled=False, pid=os.getpid())
    return _TelemState(
        enabled=True, pid=os.getpid(), interval=telem_interval(), path=target
    )


def _state() -> _TelemState:
    global _STATE
    if _STATE is None:
        _STATE = _fresh_state()
    elif _STATE.pid != os.getpid():
        # A forked pool worker inherited the parent's state. Frames stay
        # off until the runner's trampoline calls activate_worker().
        _STATE = _TelemState(enabled=False, pid=os.getpid())
    return _STATE


def enabled() -> bool:
    """True when this process is currently recording telemetry frames."""
    return _state().enabled


def interval() -> int:
    """The active window length (parent: env; worker: shipped context)."""
    return _state().interval


def _header_record(state: _TelemState) -> dict:
    name = state.path.stem if state.path is not None else "run"
    if name.startswith("TELEM_"):
        name = name[6:]
    return {
        "type": "header",
        "run": name,
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "interval": state.interval,
        "latency_buckets": list(LATENCY_BUCKETS),
        "env": knobs.environ(),
        "knobs": knobs.resolved(),
    }


def _open_sink(state: _TelemState) -> None:
    assert state.path is not None
    state.path.parent.mkdir(parents=True, exist_ok=True)
    state.file = state.path.open("a", encoding="utf-8")
    state.file.write(json.dumps(_header_record(state)) + "\n")
    state.file.flush()


def record_frame(frame: Mapping[str, Any]) -> None:
    """Append one frame (parent: to the file; worker: to the task buffer)."""
    state = _state()
    if not state.enabled:
        return
    if state.buffer is not None:
        state.buffer.append(dict(frame))
        return
    if state.file is None:
        _open_sink(state)
    state.file.write(json.dumps(dict(frame)) + "\n")
    state.file.flush()


# -- run lifecycle -------------------------------------------------------------------


def finish_run() -> Path | None:
    """Write the final labelled metrics snapshot and close the file.

    Returns the telemetry path when a file was written, else ``None``.
    Telemetry stays disabled afterwards (tests re-arm with :func:`reset`).
    """
    global _STATE
    state = _state()
    path: Path | None = None
    if state.enabled and state.file is not None:
        record_frame(
            {
                "type": "metrics",
                "t": round(time.time(), 6),
                **METRICS.snapshot(),
            }
        )
        state.file.close()
        state.file = None
        path = state.path
    _STATE = _TelemState(enabled=False, pid=os.getpid())
    return path


def disable() -> None:
    """Turn telemetry off for this process regardless of ``REPRO_TELEM``."""
    global _STATE
    if _STATE is not None and _STATE.file is not None:
        _STATE.file.close()
    _STATE = _TelemState(enabled=False, pid=os.getpid())


def reset() -> None:
    """Drop telemetry state without writing (tests re-read the env lazily)."""
    global _STATE
    if _STATE is not None and _STATE.file is not None:
        _STATE.file.close()
    _STATE = None


@atexit.register
def _close_at_exit() -> None:
    state = _STATE
    if state is not None and state.file is not None:
        try:
            finish_run()
        except (OSError, ValueError):
            pass


# -- cross-process propagation -------------------------------------------------------


def activate_worker(interval: int) -> None:
    """Adopt the parent's telemetry context in a pool worker.

    ``interval <= 0`` means the parent had telemetry off: the worker
    stays disabled. Each activation starts a fresh buffer, so a worker
    serving several tasks (or retrying one) never leaks frames from a
    previous attempt into the next envelope.
    """
    global _STATE
    if interval <= 0:
        _STATE = _TelemState(enabled=False, pid=os.getpid())
        return
    _STATE = _TelemState(
        enabled=True, pid=os.getpid(), interval=int(interval), buffer=[]
    )


def worker_interval() -> int:
    """The interval to ship inside pool payloads (0 when telemetry is off)."""
    state = _state()
    return state.interval if state.enabled else 0


def drain_worker() -> tuple[dict, ...]:
    """Take (and clear) the frames buffered since :func:`activate_worker`."""
    state = _state()
    frames = tuple(state.buffer or ())
    if state.buffer is not None:
        state.buffer = []
    return frames


def absorb(frames: Iterable[Mapping[str, Any]]) -> None:
    """Write worker-buffered frames into this process's sink."""
    state = _state()
    if not state.enabled:
        return
    for frame in frames:
        record_frame(frame)


# -- frame builders ------------------------------------------------------------------


def _int_list(values: Iterable[Any]) -> list[int]:
    return [int(v) for v in values]


def _float_list(values: Iterable[Any]) -> list[float]:
    return [float(v) for v in values]


def field_frame(
    *,
    window: int,
    slot0: int,
    slots: int,
    shard: int,
    labels: Mapping[str, str],
    networks: Iterable[int],
    jammed: Iterable[int],
    attempts: Iterable[int],
    delivered: Iterable[int],
    attempted: Iterable[int],
    hops: Iterable[int],
    neg_sum: Iterable[float],
    lat_counts: Iterable[int],
    lat_min: float | None,
    lat_max: float | None,
    tokens: Iterable[float] | None = None,
) -> dict:
    """One shard's view of one field window, in merge-exact form.

    Per-network outcomes stay as arrays (restricted to the shard's *own*
    networks — halo replicas are never emitted), so the parent's merge is
    placement by global index, no floating-point accumulation across
    shards. The latency histogram ships as integer bucket counts over
    :data:`LATENCY_BUCKETS` plus the window min/max.
    """
    frame = {
        "type": "frame",
        "series": "field",
        "window": int(window),
        "slot0": int(slot0),
        "slots": int(slots),
        "shard": int(shard),
        "labels": {str(k): str(v) for k, v in sorted(labels.items())},
        "networks": _int_list(networks),
        "jammed": _int_list(jammed),
        "attempts": _int_list(attempts),
        "delivered": _int_list(delivered),
        "attempted": _int_list(attempted),
        "hops": _int_list(hops),
        "neg_sum": _float_list(neg_sum),
        "lat_counts": _int_list(lat_counts),
        "lat_min": float(lat_min) if lat_min is not None else None,
        "lat_max": float(lat_max) if lat_max is not None else None,
    }
    if tokens is not None:
        frame["tokens"] = _float_list(tokens)
    return frame


class FlightRecorder:
    """Bounded ring of windowed registry/series deltas.

    Call :meth:`tick` once per slot/episode with the quantities to sum
    over the window; every ``interval`` ticks a frame is emitted to the
    telemetry sink and appended to the in-memory ring (``maxlen`` =
    ``REPRO_TELEM_WINDOW``, so a million-episode run holds O(ring)
    state). ``counters=`` names :data:`~repro.obs.metrics.METRICS`
    counters whose per-window deltas (e.g. the PER-cache hit/miss pair)
    ride along in each frame's ``values``.

    Recorders are inert when telemetry is disabled: ``tick`` returns
    immediately after one boolean check and nothing is buffered.
    """

    def __init__(
        self,
        series: str,
        *,
        labels: Mapping[str, str] | None = None,
        interval: int | None = None,
        ring: int | None = None,
        counters: tuple[str, ...] = (),
    ) -> None:
        self.series = str(series)
        self.labels = {str(k): str(v) for k, v in sorted((labels or {}).items())}
        self.enabled = enabled()
        self.interval = int(interval) if interval is not None else _state().interval
        if self.interval < 1:
            raise ConfigurationError(
                f"recorder interval must be >= 1, got {self.interval}"
            )
        self.frames: deque[dict] = deque(maxlen=ring or telem_window())
        self._counters = tuple(counters)
        self._baseline = self._counter_values()
        self._window = 0
        self._ticks = 0
        self._acc: dict[str, float] = {}

    def _counter_values(self) -> dict[str, float]:
        if not self._counters or not self.enabled:
            return {}
        return {
            name: METRICS.counters[name].value
            for name in self._counters
            if name in METRICS.counters
        }

    def tick(self, **values: float) -> dict | None:
        """Accumulate one slot/episode; emits a frame at window edges."""
        if not self.enabled:
            return None
        for key, value in values.items():
            self._acc[key] = self._acc.get(key, 0.0) + float(value)
        self._ticks += 1
        if self._ticks >= self.interval:
            return self.flush()
        return None

    def flush(self) -> dict | None:
        """Emit the current (possibly partial) window; no-op when empty."""
        if not self.enabled or self._ticks == 0:
            return None
        values = {k: self._acc[k] for k in sorted(self._acc)}
        current = self._counter_values()
        for name in self._counters:
            delta = current.get(name, 0.0) - self._baseline.get(name, 0.0)
            values[f"delta.{name}"] = delta
        self._baseline = current
        frame = {
            "type": "frame",
            "series": self.series,
            "window": self._window,
            "ticks": self._ticks,
            "labels": dict(self.labels),
            "values": values,
        }
        self.frames.append(frame)
        record_frame(frame)
        self._window += 1
        self._ticks = 0
        self._acc = {}
        return frame


# -- the read side -------------------------------------------------------------------


@dataclass
class TelemetryDoc:
    """Parsed ``TELEM_*.jsonl``: records bucketed by type."""

    path: Path
    header: dict | None = None
    frames: list[dict] = field(default_factory=list)
    metrics: dict | None = None  # last metrics record wins
    malformed: int = 0


def is_telemetry_file(path: Path | str) -> bool:
    """True when the file's first JSON record is a telemetry header/frame.

    Lets ``repro obs summary`` route ``TELEM_*.jsonl`` files to the
    dashboard renderer while ``RUN_*.jsonl`` traces keep the span tree.
    """
    path = Path(path)
    if not path.is_file():
        return False
    try:
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    return False
                return record.get("type") in {"header", "frame"}
    except OSError:
        return False
    return False


def load_telemetry(path: Path | str) -> TelemetryDoc:
    """Parse a telemetry file, tolerating truncated/garbled lines."""
    path = Path(path)
    if not path.is_file():
        raise ReproError(f"telemetry file not found: {path}")
    doc = TelemetryDoc(path=path)
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                doc.malformed += 1
                continue
            kind = record.get("type")
            if kind == "header" and doc.header is None:
                doc.header = record
            elif kind == "frame":
                doc.frames.append(record)
            elif kind == "metrics":
                doc.metrics = record
            else:
                doc.malformed += 1
    if doc.header is None and not doc.frames:
        raise ReproError(f"no telemetry records in {path}")
    return doc


def _merge_field_windows(frames: list[dict]) -> list[dict]:
    """Merge per-shard field frames into one fleet view per window.

    Deterministic by construction: per-network arrays are *placed* by
    global network index (each network is owned by exactly one shard),
    latency bucket counts are integers added across shards, and the
    fleet-level rates are recomputed from the merged integer totals — so
    the result is bit-identical for any shard/worker decomposition and
    independent of the raw frame order in the file.
    """
    # Dedupe retried shards: last (series, window, shard) wins.
    latest: dict[tuple[int, int], dict] = {}
    for frame in frames:
        latest[(int(frame["window"]), int(frame.get("shard", 0)))] = frame
    by_window: dict[int, list[dict]] = {}
    for (window, _), frame in sorted(latest.items()):
        by_window.setdefault(window, []).append(frame)

    merged: list[dict] = []
    for window in sorted(by_window):
        shards = by_window[window]
        per_net: dict[int, dict[str, float]] = {}
        lat_counts = [0] * (len(LATENCY_BUCKETS) + 1)
        lat_min: float | None = None
        lat_max: float | None = None
        slots = 0
        slot0 = None
        labels: dict = {}
        has_tokens = False
        for frame in shards:
            slots = max(slots, int(frame["slots"]))
            slot0 = (
                int(frame["slot0"])
                if slot0 is None
                else min(slot0, int(frame["slot0"]))
            )
            labels = frame.get("labels", labels) or labels
            counts = frame.get("lat_counts", ())
            for i, count in enumerate(counts):
                lat_counts[i] += int(count)
            if frame.get("lat_min") is not None:
                lat_min = (
                    frame["lat_min"]
                    if lat_min is None
                    else min(lat_min, frame["lat_min"])
                )
            if frame.get("lat_max") is not None:
                lat_max = (
                    frame["lat_max"]
                    if lat_max is None
                    else max(lat_max, frame["lat_max"])
                )
            tokens = frame.get("tokens")
            has_tokens = has_tokens or tokens is not None
            for k, net in enumerate(frame["networks"]):
                row = per_net[int(net)] = {
                    "jammed": int(frame["jammed"][k]),
                    "attempts": int(frame["attempts"][k]),
                    "delivered": int(frame["delivered"][k]),
                    "attempted": int(frame["attempted"][k]),
                    "hops": int(frame["hops"][k]),
                    "neg_sum": float(frame["neg_sum"][k]),
                }
                if tokens is not None:
                    row["tokens"] = float(tokens[k])
        networks = sorted(per_net)
        jammed = [per_net[g]["jammed"] for g in networks]
        delivered = [per_net[g]["delivered"] for g in networks]
        total_slots = slots * len(networks)
        row = {
            "window": window,
            "slot0": slot0,
            "slots": slots,
            "labels": labels,
            "networks": networks,
            "jammed": jammed,
            "attempts": [per_net[g]["attempts"] for g in networks],
            "delivered": delivered,
            "attempted": [per_net[g]["attempted"] for g in networks],
            "hops": [per_net[g]["hops"] for g in networks],
            "neg_sum": [per_net[g]["neg_sum"] for g in networks],
            "lat_counts": lat_counts,
            "lat_min": lat_min,
            "lat_max": lat_max,
            "jam_rate": sum(jammed) / total_slots if total_slots else 0.0,
            "goodput": sum(delivered) / total_slots if total_slots else 0.0,
        }
        if has_tokens:
            row["tokens"] = [per_net[g].get("tokens", 0.0) for g in networks]
        merged.append(row)
    return merged


def _merge_generic_windows(frames: list[dict]) -> list[dict]:
    """Order generic frames by window, deduping repeats last-wins."""
    latest: dict[int, dict] = {}
    for frame in frames:
        latest[int(frame["window"])] = frame
    return [latest[w] for w in sorted(latest)]


def merge_frames(doc: TelemetryDoc) -> dict[str, list[dict]]:
    """Canonical merged view: series name -> merged window list.

    The ``"field"`` series merges shard-wise (see
    :func:`_merge_field_windows`); any other series merges by window with
    last-wins dedupe. The output depends only on the set of frames, never
    on their order in the file.
    """
    by_series: dict[str, list[dict]] = {}
    for frame in doc.frames:
        by_series.setdefault(str(frame.get("series", "?")), []).append(frame)
    merged: dict[str, list[dict]] = {}
    for series in sorted(by_series):
        if series == "field":
            merged[series] = _merge_field_windows(by_series[series])
        else:
            merged[series] = _merge_generic_windows(by_series[series])
    return merged


__all__ = [
    "TELEM_ENV",
    "TELEM_INTERVAL_ENV",
    "TELEM_WINDOW_ENV",
    "DEFAULT_INTERVAL",
    "LATENCY_BUCKETS",
    "telem_target",
    "telem_interval",
    "telem_window",
    "enabled",
    "interval",
    "record_frame",
    "finish_run",
    "disable",
    "reset",
    "activate_worker",
    "worker_interval",
    "drain_worker",
    "absorb",
    "field_frame",
    "FlightRecorder",
    "TelemetryDoc",
    "is_telemetry_file",
    "load_telemetry",
    "merge_frames",
]
