"""Tests for the OpenMetrics exposition and ``repro obs export``."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import telemetry
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.openmetrics import export_telemetry, metric_name, render_openmetrics


class TestMetricName:
    def test_dots_become_underscores(self):
        assert metric_name("sim.jam_attempts") == "sim_jam_attempts"

    def test_leading_digit_prefixed(self):
        assert metric_name("2b.trials") == "_2b_trials"

    def test_empty_rejected(self):
        assert metric_name("...") == "___"  # sanitised, not rejected
        with pytest.raises(ReproError):
            metric_name("")


class TestRenderOpenmetrics:
    def test_counters_get_total_suffix_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("jam.locks", 3, labels={"adversary": "reactive", "network": 0})
        reg.inc("sim.slots", 40)
        text = render_openmetrics(reg.snapshot())
        assert "# TYPE jam_locks counter" in text
        assert (
            'jam_locks_total{adversary="reactive",network="0"} 3' in text
        )
        assert "sim_slots_total 40" in text
        assert text.endswith("# EOF\n")

    def test_gauges_plain(self):
        reg = MetricsRegistry()
        reg.set("dqn.epsilon", 0.125)
        text = render_openmetrics(reg.snapshot())
        assert "# TYPE dqn_epsilon gauge" in text
        assert "dqn_epsilon 0.125" in text

    def test_histograms_expand_cumulative_buckets(self):
        reg = MetricsRegistry()
        for v in (0.5, 1.5, 9.0):
            reg.observe("lat", v, buckets=(1.0, 2.0))
        text = render_openmetrics(reg.snapshot())
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 11" in text
        assert "lat_count 3" in text

    def test_label_values_escaped(self):
        text = render_openmetrics(
            {"gauges": {"x{k=v}": 1.0}, "counters": {}, "histograms": {}}
        )
        assert 'x{k="v"} 1' in text

    def test_families_share_one_type_line(self):
        reg = MetricsRegistry()
        reg.inc("jam.locks", 1, labels={"network": 0})
        reg.inc("jam.locks", 2, labels={"network": 1})
        text = render_openmetrics(reg.snapshot())
        assert text.count("# TYPE jam_locks counter") == 1


class TestExportTelemetry:
    def _write_run(self, monkeypatch, tmp_path):
        path = tmp_path / "TELEM_x.jsonl"
        monkeypatch.setenv("REPRO_TELEM", str(path))
        telemetry.reset()
        for shard, networks in ((0, [0, 1]), (1, [2])):
            telemetry.record_frame(
                telemetry.field_frame(
                    window=0,
                    slot0=0,
                    slots=10,
                    shard=shard,
                    labels={"adversary": "reactive", "scheme": "fh"},
                    networks=networks,
                    jammed=[2] * len(networks),
                    attempts=[3] * len(networks),
                    delivered=[250] * len(networks),
                    attempted=[300] * len(networks),
                    hops=[1] * len(networks),
                    neg_sum=[0.4] * len(networks),
                    lat_counts=[1] * (len(telemetry.LATENCY_BUCKETS) + 1),
                    lat_min=0.01,
                    lat_max=2.0,
                    tokens=[5.0] * len(networks),
                )
            )
        METRICS.inc("jam.locks", 4, labels={"adversary": "reactive", "network": 1})
        telemetry.finish_run()
        return path

    def test_writes_prom_and_series(self, monkeypatch, tmp_path):
        src = self._write_run(monkeypatch, tmp_path)
        prom, series = export_telemetry(src)
        assert prom == tmp_path / "TELEM_x.prom"
        assert series == tmp_path / "TELEM_x_series.jsonl"
        text = prom.read_text()
        assert 'jam_locks_total{adversary="reactive",network="1"} 4' in text
        # fleet gauges recomputed from the merged field series
        assert (
            'fleet_jam_rate{adversary="reactive",scheme="fh"} 0.2' in text
        )
        assert 'fleet_networks{adversary="reactive",scheme="fh"} 3' in text
        assert 'fleet_duty_tokens{adversary="reactive",scheme="fh"} 5' in text
        rows = [json.loads(line) for line in series.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["series"] == "field"
        assert rows[0]["networks"] == [0, 1, 2]
        assert rows[0]["jammed"] == [2, 2, 2]

    def test_explicit_output_paths(self, monkeypatch, tmp_path):
        src = self._write_run(monkeypatch, tmp_path)
        prom, series = export_telemetry(
            src,
            out=tmp_path / "sub" / "m.prom",
            series_out=tmp_path / "sub" / "s.jsonl",
        )
        assert prom.is_file() and series.is_file()

    def test_export_without_metrics_record(self, monkeypatch, tmp_path):
        # A killed run has frames but no final metrics record.
        src = self._write_run(monkeypatch, tmp_path)
        kept = [
            line
            for line in src.read_text().splitlines()
            if json.loads(line)["type"] != "metrics"
        ]
        src.write_text("\n".join(kept) + "\n")
        prom, _ = export_telemetry(src)
        text = prom.read_text()
        assert "jam_locks_total" not in text
        assert "fleet_jam_rate" in text  # series-derived gauges survive
