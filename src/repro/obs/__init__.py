"""Observability: spans, events, metrics, telemetry, logs, profiles.

Four pillars, all zero-dependency and off-by-default (metrics excepted):

* :mod:`repro.obs.trace` — hierarchical spans and structured events for
  a ``RUN_<name>.jsonl`` artifact when ``REPRO_TRACE`` is set (sampled
  by ``REPRO_TRACE_SAMPLE``).
* :mod:`repro.obs.metrics` — an always-on registry of named counters,
  gauges, and fixed-bucket histograms — optionally **labelled**
  (``labels={"adversary": ..., "scheme": ...}``) — snapshotted into
  every ``BENCH_*.json`` and into each artifact's final ``metrics`` record.
* :mod:`repro.obs.telemetry` — windowed time series (``REPRO_TELEM``):
  per-window fleet frames that the field slot engine builds from its
  own per-network counters (:class:`repro.sim.shard._ShardEngine`) and
  :class:`~repro.obs.telemetry.FlightRecorder` episode series from the
  training loops, for a ``TELEM_<name>.jsonl`` artifact, merged across
  shard workers bit-identically (see
  :func:`~repro.obs.telemetry.merge_frames`).
* :mod:`repro.obs.log` — structured ``key=value`` logging over stdlib
  :mod:`logging` (stderr; the CLI's ``--quiet`` caps it at WARNING).

Trace and telemetry write through one sink, :mod:`repro.obs.sink`: one
per-process state holding both optional streams, typed records routed by
``type`` (``manifest``/``span``/``event`` to ``RUN``, ``header``/``frame``
to ``TELEM``, ``metrics`` to both at finish), one worker envelope that
carries every record a pool task made back to the parent, and one
tolerant JSONL reader, :func:`~repro.obs.sink.read`.

Plus :mod:`repro.obs.profile` (``REPRO_PROFILE=1`` dumps per-stage
``PROF_<stage>.pstats``) and the ``repro obs`` renderers —
:mod:`repro.obs.summary` (trace renderer), :mod:`repro.obs.openmetrics`
(``repro obs export``), :mod:`repro.obs.watch` (``repro obs watch``) —
which are intentionally not re-exported here to keep library imports
light.
"""

from repro.obs.log import configure, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    drain_labelled_counters,
    label_key,
    parse_metric_key,
)
from repro.obs.paths import artifact_dir
from repro.obs.profile import maybe_profile, profiling_enabled
from repro.obs.telemetry import FlightRecorder, load_telemetry, merge_frames
from repro.obs.trace import enabled, event, finish_run, span, start_run

__all__ = [
    "configure",
    "get_logger",
    "DEFAULT_BUCKETS",
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "drain_labelled_counters",
    "label_key",
    "parse_metric_key",
    "artifact_dir",
    "maybe_profile",
    "profiling_enabled",
    "FlightRecorder",
    "load_telemetry",
    "merge_frames",
    "enabled",
    "event",
    "span",
    "start_run",
    "finish_run",
]
