"""Named counters, gauges, and fixed-bucket histograms.

The registry is the always-on half of the observability layer: increments
are plain dict lookups plus float adds, cheap enough for per-frame hot
paths, and the whole registry snapshots into the ``metrics`` section of
every ``BENCH_*.json`` artifact (see
:meth:`repro.exec.timing.TimingRegistry.write_bench`) and into the final
``metrics`` record of a ``RUN_*.jsonl`` trace.

Conventions: metric names are dotted lowercase (``sim.slots``,
``link.per_cache_hits``, ``serve.decisions``, ``exec.retries``). Counters only
go up within a run; gauges hold the last written value; histograms bin
observations into fixed upper-bound buckets so quantiles can be estimated
after the fact without storing samples.

Metrics optionally carry a **label set** (``labels={"adversary":
"reactive", "scheme": "deception"}``): each distinct label combination is
its own time series, stored under the serialised key
``name{k=v,...}`` with label keys sorted — so snapshots stay
deterministic, cross-process merging needs no special casing, and
exporters (:mod:`repro.obs.openmetrics`) can parse the labels back out
with :func:`parse_metric_key`.

Pool workers accumulate into their own process-local registry; when
tracing or telemetry is active the :class:`repro.exec.ParallelRunner`
envelope carries each worker's snapshot back and merges it here (see
:func:`MetricsRegistry.merge`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds — a coarse log scale wide enough
#: for both sub-millisecond timings and triple-digit losses. Observations
#: above the last bound land in the implicit overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
)

#: Characters that would make a serialised ``name{k=v}`` key ambiguous.
_KEY_FORBIDDEN = frozenset('{}",=')


def _check_token(token: str, what: str) -> str:
    token = str(token)
    if not token or any(c in _KEY_FORBIDDEN for c in token):
        raise ConfigurationError(
            f"{what} must be non-empty and free of {{}}\"=, characters, "
            f"got {token!r}"
        )
    return token


def label_key(name: str, labels: Mapping[str, object] | None = None) -> str:
    """Serialise ``(name, labels)`` into the registry's flat key.

    Labels sort by key, so any two call sites naming the same label set
    produce the same key — snapshots and merges stay deterministic. With
    no labels the key is the bare name (backwards compatible).
    """
    name = _check_token(name, "metric name")
    if not labels:
        return name
    parts = ",".join(
        f"{_check_token(k, 'label key')}={_check_token(v, 'label value')}"
        for k, v in sorted(labels.items())
    )
    return f"{name}{{{parts}}}"


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`label_key`: ``'a{x=1,y=2}'`` -> ``('a', {'x': '1', ...})``.

    Bare names parse to an empty label dict. Raises
    :class:`~repro.errors.ConfigurationError` on malformed keys.
    """
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    if not name or not rest.endswith("}"):
        raise ConfigurationError(f"malformed metric key {key!r}")
    labels: dict[str, str] = {}
    body = rest[:-1]
    if body:
        for pair in body.split(","):
            k, sep, v = pair.partition("=")
            if not sep or not k or not v:
                raise ConfigurationError(f"malformed metric key {key!r}")
            labels[k] = v
    return name, labels


@dataclass
class Counter:
    """Monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counters only go up, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """Last-written value (e.g. the current exploration rate)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


def quantile_from_buckets(
    buckets: tuple[float, ...],
    counts: list[int],
    q: float,
    *,
    minimum: float,
    maximum: float,
) -> float:
    """Estimate the ``q``-quantile from fixed-bucket counts.

    The boundary interpolation contract, pinned by tests:

    * an **empty** histogram (all counts zero) returns ``NaN`` for every
      ``q`` — there is no observation to report;
    * the winning bucket is the first non-empty bucket whose cumulative
      count reaches ``q * total``; the estimate interpolates linearly
      between that bucket's bounds (the lower bound of bucket 0 is the
      observed minimum);
    * every interpolated estimate is **clamped into the observed
      ``[minimum, maximum]`` range** (when those are finite), so a
      single-bucket histogram or a ``q`` of 0/1 can never report a value
      outside what was actually observed;
    * observations above the last bound live in the implicit overflow
      bucket, which reports the observed maximum.

    The trailing ``return maximum`` is defensive only: with a non-zero
    total the winning-bucket scan always terminates at the last non-empty
    bucket (its cumulative count equals ``total >= q * total``).
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return float("nan")
    target = q * total
    cum = 0.0
    for i, count in enumerate(counts):
        cum += count
        if cum >= target and count:
            if i >= len(buckets):  # overflow bucket
                return maximum
            lo = buckets[i - 1] if i > 0 else min(minimum, buckets[i])
            hi = buckets[i]
            frac = (target - (cum - count)) / count
            value = lo + (hi - lo) * max(0.0, min(1.0, frac))
            if math.isfinite(minimum):
                value = max(value, minimum)
            if math.isfinite(maximum):
                value = min(value, maximum)
            return value
    return maximum


@dataclass
class Histogram:
    """Fixed-bucket histogram with count/sum/min/max sidecars."""

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def __post_init__(self) -> None:
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ConfigurationError("histogram buckets must be sorted and non-empty")
        if not self.counts:
            # One slot per bound plus the overflow bucket.
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def observe_many(self, values) -> None:
        """Fold a whole array of samples in at once.

        One vectorised ``searchsorted`` instead of a Python-level
        ``observe`` per sample — the serving layer records a latency per
        decision, so hot paths fold each batch in with a single call.
        Bucket placement matches :meth:`observe` exactly
        (``bisect_left`` == ``searchsorted(side="left")``).
        """
        import numpy as np

        values = np.asarray(values, dtype=np.float64).reshape(-1)
        values = values[~np.isnan(values)]
        if values.size == 0:
            return
        slots = np.searchsorted(self.buckets, values, side="left")
        for slot, count in zip(*np.unique(slots, return_counts=True)):
            self.counts[int(slot)] += int(count)
        self.count += int(values.size)
        self.total += float(values.sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        return quantile_from_buckets(
            self.buckets, self.counts, q, minimum=self.minimum, maximum=self.maximum
        )

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }


class MetricsRegistry:
    """Process-local registry of named counters, gauges, and histograms.

    Every accessor takes an optional ``labels`` mapping; each distinct
    label combination is an independent metric stored under the
    :func:`label_key` serialisation, so a labelled registry is just a
    registry whose keys happen to contain ``{k=v,...}`` suffixes —
    snapshots, merges, and BENCH artifacts need no schema change.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- get-or-create accessors ---------------------------------------------------

    def counter(
        self, name: str, *, labels: Mapping[str, object] | None = None
    ) -> Counter:
        key = label_key(name, labels) if labels else name
        metric = self.counters.get(key)
        if metric is None:
            metric = self.counters[key] = Counter()
        return metric

    def gauge(
        self, name: str, *, labels: Mapping[str, object] | None = None
    ) -> Gauge:
        key = label_key(name, labels) if labels else name
        metric = self.gauges.get(key)
        if metric is None:
            metric = self.gauges[key] = Gauge()
        return metric

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] | None = None,
        labels: Mapping[str, object] | None = None,
    ) -> Histogram:
        key = label_key(name, labels) if labels else name
        metric = self.histograms.get(key)
        if metric is None:
            metric = self.histograms[key] = Histogram(
                buckets=buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return metric

    # -- recording shorthands --------------------------------------------------------

    def inc(
        self,
        name: str,
        amount: float = 1.0,
        *,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        self.counter(name, labels=labels).inc(amount)

    def set(
        self,
        name: str,
        value: float,
        *,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        self.gauge(name, labels=labels).set(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        buckets: tuple[float, ...] | None = None,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        self.histogram(name, buckets=buckets, labels=labels).observe(value)

    def observe_many(
        self,
        name: str,
        values,
        *,
        buckets: tuple[float, ...] | None = None,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        self.histogram(name, buckets=buckets, labels=labels).observe_many(
            values
        )

    # -- snapshots -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        return {
            "counters": {k: v.value for k, v in sorted(self.counters.items())},
            "gauges": {k: v.value for k, v in sorted(self.gauges.items())},
            "histograms": {k: v.as_dict() for k, v in sorted(self.histograms.items())},
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters add, gauges take the incoming value, histograms add
        bucket counts (bucket bounds must match — they do, because both
        sides run the same instrumentation code).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set(name, value)
        for name, doc in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, buckets=tuple(doc["buckets"]))
            if list(hist.buckets) != list(doc["buckets"]):
                raise ConfigurationError(
                    f"histogram {name!r} bucket mismatch during merge"
                )
            for i, count in enumerate(doc["counts"]):
                hist.counts[i] += count
            hist.count += doc["count"]
            hist.total += doc["sum"]
            if doc["min"] is not None:
                hist.minimum = min(hist.minimum, doc["min"])
            if doc["max"] is not None:
                hist.maximum = max(hist.maximum, doc["max"])

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


#: Process-global registry the library's instrumented paths record into.
METRICS = MetricsRegistry()


def drain_labelled_counters(
    obj: object,
    prefix: str,
    labels: Mapping[str, object],
    *,
    registry: MetricsRegistry | None = None,
) -> None:
    """Flush an object's local instrumentation counters into the registry.

    Duck-typed: ``obj`` exposes ``drain_counters() -> dict[str, float]``
    (return-and-clear), the way the jammer suite accumulates adversary
    events without touching the global registry from per-slot hot paths.
    Each drained ``key`` lands as ``<prefix>.<key>{labels...}``. Objects
    without the hook (or ``None``) are ignored, so call sites don't need
    isinstance checks.
    """
    drain = getattr(obj, "drain_counters", None)
    if drain is None:
        return
    registry = registry if registry is not None else METRICS
    for key, value in sorted(drain().items()):
        if value:
            registry.inc(f"{prefix}.{key}", value, labels=labels)


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "drain_labelled_counters",
    "label_key",
    "parse_metric_key",
    "quantile_from_buckets",
]
