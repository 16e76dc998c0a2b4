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
(default 20).

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

Frames go through :mod:`repro.obs.sink`, which also carries them back
from :class:`repro.exec.ParallelRunner` pool workers. A retried task's
failed attempt never returns an envelope, and :func:`merge_frames`
additionally dedupes on ``(series, window, shard)`` (generic frames:
``(series, window, labels)``) last-wins, so fault-policy retries cannot
double-count a window. Telemetry never
touches a simulation random stream: engine results are bit-identical
with telemetry on or off.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

from repro import knobs
from repro.errors import ConfigurationError
from repro.obs import sink
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.obs.sink import ObsDoc, ObsState, disable, reset

#: Bucket bounds of the per-window negotiation-latency histogram carried
#: by field frames. Fixed globally so shard-side bucket counts (integers)
#: merge by plain addition.
LATENCY_BUCKETS: tuple[float, ...] = DEFAULT_BUCKETS


def enabled() -> bool:
    """True when this process is currently recording telemetry frames."""
    return sink.TELEM in sink.state().streams


def interval() -> int:
    """The active window length (parent: env; worker: shipped context)."""
    return sink.state().interval


def _header_record(state: ObsState, run: str) -> dict:
    return {
        "type": "header",
        "run": run,
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "interval": state.interval,
        "latency_buckets": list(LATENCY_BUCKETS),
        "env": knobs.environ(),
        "knobs": knobs.resolved(),
    }


sink.HEADS[sink.TELEM] = _header_record


def record_frame(frame: Mapping[str, Any]) -> None:
    """Append one frame (parent: to the file; worker: to the task buffer)."""
    if enabled():
        sink.emit(dict(frame))


def finish_run() -> Path | None:
    """Write the final labelled metrics snapshot and close the file.

    Returns the telemetry path when a file was written, else ``None``.
    Telemetry stays disabled afterwards (tests re-arm with :func:`reset`).
    """
    return sink.finish(sink.TELEM).get(sink.TELEM)


# -- frame builders ------------------------------------------------------------------


def field_frame(
    *,
    window: int,
    slot0: int,
    slots: int,
    shard: int,
    labels: Mapping[str, str],
    networks: list[int],
    jammed: list[int],
    attempts: list[int],
    delivered: list[int],
    attempted: list[int],
    hops: list[int],
    neg_sum: list[float],
    lat_counts: list[int],
    lat_min: float | None,
    lat_max: float | None,
    tokens: list[float] | None = None,
) -> dict:
    """One shard's view of one field window, in merge-exact form.

    Per-network outcomes stay as arrays (restricted to the shard's *own*
    networks — halo replicas are never emitted), so the parent's merge is
    placement by global index, no floating-point accumulation across
    shards. The latency histogram ships as integer bucket counts over
    :data:`LATENCY_BUCKETS` plus the window min/max. Columns are lists of
    plain Python numbers (``ndarray.tolist()``), placed as given.
    """
    frame = {
        "type": "frame",
        "series": "field",
        "window": int(window),
        "slot0": int(slot0),
        "slots": int(slots),
        "shard": int(shard),
        "labels": {str(k): str(v) for k, v in sorted(labels.items())},
        "networks": networks,
        "jammed": jammed,
        "attempts": attempts,
        "delivered": delivered,
        "attempted": attempted,
        "hops": hops,
        "neg_sum": neg_sum,
        "lat_counts": lat_counts,
        "lat_min": lat_min,
        "lat_max": lat_max,
    }
    if tokens is not None:
        frame["tokens"] = tokens
    return frame


class FlightRecorder:
    """Windowed registry/series deltas, emitted to the telemetry sink.

    Call :meth:`tick` once per slot/episode with the quantities to sum
    over the window; every ``interval`` ticks a frame is emitted to the
    telemetry sink, and the recorder keeps only the open window.

    Recorders are inert when telemetry is disabled: ``tick`` returns
    immediately after one boolean check and nothing is buffered.
    """

    def __init__(
        self,
        series: str,
        *,
        labels: Mapping[str, str] | None = None,
        interval: int | None = None,
    ) -> None:
        self.series = str(series)
        self.labels = {str(k): str(v) for k, v in sorted((labels or {}).items())}
        self.enabled = enabled()
        self.interval = int(interval) if interval is not None else sink.state().interval
        if self.interval < 1:
            raise ConfigurationError(
                f"recorder interval must be >= 1, got {self.interval}"
            )
        self._window = 0
        self._ticks = 0
        self._acc: dict[str, float] = {}

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
        frame = {
            "type": "frame",
            "series": self.series,
            "window": self._window,
            "ticks": self._ticks,
            "labels": dict(self.labels),
            "values": values,
        }
        record_frame(frame)
        self._window += 1
        self._ticks = 0
        self._acc = {}
        return frame


# -- the read side -------------------------------------------------------------------


def load_telemetry(path: Path | str) -> ObsDoc:
    """Parse a telemetry file, tolerating truncated/garbled lines."""
    return sink.read(path, sink.TELEM)


#: Per-network integer columns of a field frame.
_NET_COUNTS = ("jammed", "attempts", "delivered", "attempted", "hops")


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
        for frame in shards:
            for i, count in enumerate(frame.get("lat_counts", ())):
                lat_counts[i] += int(count)
            tokens = frame.get("tokens")
            for k, net in enumerate(frame["networks"]):
                row = {key: int(frame[key][k]) for key in _NET_COUNTS}
                row["neg_sum"] = float(frame["neg_sum"][k])
                if tokens is not None:
                    row["tokens"] = float(tokens[k])
                per_net[int(net)] = row
        networks = sorted(per_net)
        columns = {
            key: [per_net[g][key] for g in networks]
            for key in (*_NET_COUNTS, "neg_sum")
        }
        slots = max(int(frame["slots"]) for frame in shards)
        total_slots = slots * len(networks)
        labelled = [frame["labels"] for frame in shards if frame.get("labels")]
        lat_mins = [f["lat_min"] for f in shards if f.get("lat_min") is not None]
        lat_maxs = [f["lat_max"] for f in shards if f.get("lat_max") is not None]
        row = {
            "window": window,
            "slot0": min(int(frame["slot0"]) for frame in shards),
            "slots": slots,
            "labels": labelled[-1] if labelled else {},
            "networks": networks,
            **columns,
            "lat_counts": lat_counts,
            "lat_min": min(lat_mins, default=None),
            "lat_max": max(lat_maxs, default=None),
            "jam_rate": sum(columns["jammed"]) / total_slots if total_slots else 0.0,
            "goodput": sum(columns["delivered"]) / total_slots if total_slots else 0.0,
        }
        if any(frame.get("tokens") is not None for frame in shards):
            row["tokens"] = [per_net[g].get("tokens", 0.0) for g in networks]
        merged.append(row)
    return merged


def _merge_generic_windows(frames: list[dict]) -> list[dict]:
    """Sum each window's frames over the tasks that wrote them.

    A frame's labels name its task, so a retried task's rewrite of the
    same ``(window, labels)`` wins; distinct tasks add ``ticks`` and each
    value, and the merged frame keeps the labels they share.
    """
    latest: dict[tuple[int, tuple], dict] = {}
    for frame in frames:
        labels = tuple(sorted((frame.get("labels") or {}).items()))
        latest[(int(frame["window"]), labels)] = frame
    merged: dict[int, dict] = {}
    for (window, labels), frame in sorted(latest.items()):
        row = merged.setdefault(
            window, {"window": window, "ticks": 0, "labels": dict(labels), "values": {}}
        )
        row["ticks"] += int(frame.get("ticks", 1))
        row["labels"] = {k: v for k, v in row["labels"].items() if (k, v) in labels}
        for key, value in sorted((frame.get("values") or {}).items()):
            row["values"][key] = row["values"].get(key, 0.0) + float(value)
    return [merged[w] for w in sorted(merged)]


def merge_frames(doc: ObsDoc) -> dict[str, list[dict]]:
    """Canonical merged view: series name -> merged window list.

    The ``"field"`` series merges shard-wise (see
    :func:`_merge_field_windows`); any other series sums each window over
    its tasks (see :func:`_merge_generic_windows`). The output depends
    only on the set of frames, never on their order in the file.
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
    "LATENCY_BUCKETS",
    "enabled",
    "interval",
    "record_frame",
    "finish_run",
    "disable",
    "reset",
    "field_frame",
    "FlightRecorder",
    "load_telemetry",
    "merge_frames",
]
