"""Tests for the counters/gauges/histograms registry."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    drain_labelled_counters,
    label_key,
    parse_metric_key,
    quantile_from_buckets,
)


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge()
        g.set(0.5)
        g.set(0.25)
        assert g.value == 0.25


class TestHistogram:
    def test_binning_and_sidecars(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # last slot is the overflow bucket
        assert h.count == 4
        assert h.total == 105.0
        assert h.minimum == 0.5
        assert h.maximum == 100.0

    def test_nan_observations_skipped(self):
        h = Histogram()
        h.observe(float("nan"))
        assert h.count == 0
        assert math.isnan(h.mean)

    def test_buckets_must_be_sorted(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram(buckets=())

    def test_quantiles_interpolate(self):
        h = Histogram(buckets=(1.0, 2.0))
        for _ in range(100):
            h.observe(1.5)
        # All mass in the (1, 2] bucket: the median interpolates inside it.
        assert 1.0 < h.quantile(0.5) <= 2.0
        assert h.quantile(0.0) <= h.quantile(1.0)

    def test_overflow_quantile_reports_maximum(self):
        h = Histogram(buckets=(1.0,))
        h.observe(42.0)
        assert h.quantile(0.99) == 42.0

    def test_as_dict_roundtrips_json_types(self):
        h = Histogram(buckets=(0.25, 0.5, 1.0))
        h.observe(0.33)
        doc = h.as_dict()
        assert doc["count"] == 1
        assert doc["min"] == doc["max"] == 0.33
        assert len(doc["counts"]) == len(doc["buckets"]) + 1

    def test_empty_as_dict_has_null_extrema(self):
        doc = Histogram().as_dict()
        assert doc["min"] is None and doc["max"] is None

    def test_observe_many_matches_observe(self):
        values = [0.5, 1.0, 1.5, 3.0, 100.0, float("nan"), 2.0]
        one = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in values:
            one.observe(v)
        many = Histogram(buckets=(1.0, 2.0, 4.0))
        many.observe_many(values)
        assert many.counts == one.counts
        assert many.count == one.count
        assert many.total == one.total
        assert many.minimum == one.minimum
        assert many.maximum == one.maximum

    def test_observe_many_empty_is_noop(self):
        h = Histogram()
        h.observe_many([])
        h.observe_many([float("nan")])
        assert h.count == 0


class TestQuantileFromBuckets:
    def test_empty_counts_is_nan(self):
        out = quantile_from_buckets((1.0,), [0, 0], 0.5, minimum=0, maximum=0)
        assert math.isnan(out)

    def test_invalid_q_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile_from_buckets((1.0,), [1, 0], 1.5, minimum=0, maximum=1)


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_shorthands(self):
        reg = MetricsRegistry()
        reg.inc("hits", 2)
        reg.set("eps", 0.1)
        reg.observe("lat", 0.02)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 2
        assert snap["gauges"]["eps"] == 0.1
        assert snap["histograms"]["lat"]["count"] == 1

    def test_snapshot_is_sorted_and_detached(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        snap["counters"]["a"] = 99
        assert reg.counter("a").value == 1

    def test_merge_worker_snapshot(self):
        worker = MetricsRegistry()
        worker.inc("tasks", 3)
        worker.set("eps", 0.5)
        worker.observe("lat", 0.004)
        worker.observe("lat", 30.0)

        parent = MetricsRegistry()
        parent.inc("tasks", 1)
        parent.observe("lat", 0.008)
        parent.merge(worker.snapshot())

        snap = parent.snapshot()
        assert snap["counters"]["tasks"] == 4
        assert snap["gauges"]["eps"] == 0.5
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 3
        assert hist["min"] == 0.004
        assert hist["max"] == 30.0

    def test_merge_bucket_mismatch_rejected(self):
        worker = MetricsRegistry()
        worker.observe("x", 0.5, buckets=(1.0, 2.0))
        parent = MetricsRegistry()
        parent.observe("x", 0.5)  # DEFAULT_BUCKETS
        with pytest.raises(ConfigurationError):
            parent.merge(worker.snapshot())

    def test_merge_empty_histogram_keeps_extrema(self):
        worker = MetricsRegistry()
        worker.histogram("x")  # created but never observed
        parent = MetricsRegistry()
        parent.observe("x", 0.5)
        parent.merge(worker.snapshot())
        assert parent.histogram("x").minimum == 0.5

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestLabels:
    def test_label_key_sorts_labels(self):
        assert label_key("jam.locks", {"b": 2, "a": "x"}) == "jam.locks{a=x,b=2}"
        assert label_key("jam.locks", {"a": "x", "b": 2}) == "jam.locks{a=x,b=2}"

    def test_label_key_bare_name(self):
        assert label_key("sim.slots") == "sim.slots"
        assert label_key("sim.slots", {}) == "sim.slots"

    def test_label_key_rejects_forbidden_characters(self):
        for bad in ("a=b", 'a"b', "a{b", "a,b", ""):
            with pytest.raises(ConfigurationError):
                label_key(bad)
            with pytest.raises(ConfigurationError):
                label_key("ok", {bad or "k": "v"} if bad else {"": "v"})
            with pytest.raises(ConfigurationError):
                label_key("ok", {"k": bad})

    def test_parse_roundtrip(self):
        key = label_key("defense.decoys", {"scheme": "deception", "network": 3})
        name, labels = parse_metric_key(key)
        assert name == "defense.decoys"
        assert labels == {"network": "3", "scheme": "deception"}
        assert parse_metric_key("bare") == ("bare", {})

    def test_parse_rejects_malformed(self):
        for bad in ("a{b", "a{}x", "{x=1}", "a{x}", "a{=1}", "a{x=}"):
            with pytest.raises(ConfigurationError):
                parse_metric_key(bad)

    def test_parse_empty_body(self):
        assert parse_metric_key("a{}") == ("a", {})

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        reg.inc("jam.locks", labels={"adversary": "reactive"})
        reg.inc("jam.locks", 2, labels={"adversary": "follower"})
        reg.inc("jam.locks")
        snap = reg.snapshot()["counters"]
        assert snap == {
            "jam.locks": 1.0,
            "jam.locks{adversary=follower}": 2.0,
            "jam.locks{adversary=reactive}": 1.0,
        }

    def test_labelled_gauges_and_histograms(self):
        reg = MetricsRegistry()
        reg.set("tokens", 4.0, labels={"network": 7})
        reg.observe("lat", 0.02, labels={"scheme": "fh"})
        snap = reg.snapshot()
        assert snap["gauges"]["tokens{network=7}"] == 4.0
        assert snap["histograms"]["lat{scheme=fh}"]["count"] == 1

    def test_labelled_merge_adds_per_key(self):
        worker = MetricsRegistry()
        worker.inc("jam.hits", 3, labels={"network": 0})
        worker.inc("jam.hits", 5, labels={"network": 1})
        parent = MetricsRegistry()
        parent.inc("jam.hits", 1, labels={"network": 0})
        parent.merge(worker.snapshot())
        snap = parent.snapshot()["counters"]
        assert snap["jam.hits{network=0}"] == 4.0
        assert snap["jam.hits{network=1}"] == 5.0


class TestDrainLabelledCounters:
    class _Instrumented:
        def __init__(self):
            self._c = {"locks": 2.0, "idle": 0.0}

        def drain_counters(self):
            c, self._c = self._c, {}
            return c

    def test_drains_into_labelled_keys(self):
        reg = MetricsRegistry()
        obj = self._Instrumented()
        drain_labelled_counters(obj, "jam", {"adversary": "reactive"}, registry=reg)
        snap = reg.snapshot()["counters"]
        # zero-valued counters are skipped, non-zero land under prefix+labels
        assert snap == {"jam.locks{adversary=reactive}": 2.0}
        # drain is destructive: a second flush adds nothing
        drain_labelled_counters(obj, "jam", {"adversary": "reactive"}, registry=reg)
        assert reg.snapshot()["counters"] == snap

    def test_objects_without_hook_ignored(self):
        reg = MetricsRegistry()
        drain_labelled_counters(object(), "jam", {"a": "b"}, registry=reg)
        drain_labelled_counters(None, "jam", {"a": "b"}, registry=reg)
        assert reg.snapshot()["counters"] == {}


class TestQuantileContract:
    """The boundary interpolation contract documented on quantile_from_buckets."""

    def test_estimates_clamped_into_observed_range(self):
        # All 10 observations at 0.7 land in the (0.5, 1.0] bucket; naive
        # interpolation would report values below the observed minimum.
        counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        counts[DEFAULT_BUCKETS.index(1.0)] = 10
        for q in (0.0, 0.25, 0.5, 1.0):
            value = quantile_from_buckets(
                DEFAULT_BUCKETS, counts, q, minimum=0.7, maximum=0.7
            )
            assert value == 0.7

    def test_q_zero_and_one_stay_in_range(self):
        reg = MetricsRegistry()
        for v in (0.002, 0.3, 7.0):
            reg.observe("x", v)
        hist = reg.histogram("x")
        assert hist.quantile(0.0) >= hist.minimum
        assert hist.quantile(1.0) <= hist.maximum

    def test_overflow_bucket_reports_maximum(self):
        counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        counts[-1] = 4  # all observations above the last bound
        assert (
            quantile_from_buckets(
                DEFAULT_BUCKETS, counts, 0.5, minimum=150.0, maximum=320.0
            )
            == 320.0
        )

    def test_first_bucket_lower_bound_is_minimum(self):
        buckets = (10.0, 20.0)
        counts = [2, 0, 0]
        value = quantile_from_buckets(buckets, counts, 0.5, minimum=4.0, maximum=9.0)
        assert 4.0 <= value <= 9.0
