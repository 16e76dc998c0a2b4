"""Tests for the timing registry and BENCH_*.json artifacts."""

import json
import time
from datetime import datetime, timedelta, timezone

from repro.exec import timing
from repro.exec.timing import TimingRegistry
from repro.obs.metrics import MetricsRegistry


class TestRegistry:
    def test_record_accumulates(self):
        reg = TimingRegistry()
        reg.record("sweep", 1.5, items=10)
        reg.record("sweep", 0.5, items=5)
        stats = reg.stages["sweep"]
        assert stats.seconds == 2.0
        assert stats.calls == 2
        assert stats.items == 15

    def test_record_fault_counts(self):
        reg = TimingRegistry()
        reg.record("sweep", 1.0, items=4, retries=2, failures=1, timeouts=1)
        reg.record("sweep", 1.0, retries=1)
        stats = reg.stages["sweep"]
        assert stats.retries == 3
        assert stats.failures == 1
        assert stats.timeouts == 1

    def test_stage_context_times_block(self):
        reg = TimingRegistry()
        with reg.stage("nap"):
            time.sleep(0.01)
        assert reg.stages["nap"].seconds >= 0.01
        assert reg.stages["nap"].calls == 1

    def test_stage_records_on_exception(self):
        reg = TimingRegistry()
        try:
            with reg.stage("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert reg.stages["boom"].calls == 1

    def test_reset(self):
        reg = TimingRegistry()
        reg.record("x", 1.0)
        reg.reset()
        assert reg.stages == {}


class TestBenchArtifacts:
    def test_write_bench_contents(self, tmp_path):
        reg = TimingRegistry()
        reg.record("parameter_sweeps", 2.25, items=44)
        path = reg.write_bench("fig6", directory=tmp_path)
        assert path == tmp_path / "BENCH_fig6.json"
        doc = json.loads(path.read_text())
        assert doc["name"] == "fig6"
        assert doc["stages"]["parameter_sweeps"]["seconds"] == 2.25
        assert doc["stages"]["parameter_sweeps"]["items"] == 44
        assert "python" in doc and "cpu_count" in doc

    def test_fault_counts_reach_bench_json(self, tmp_path):
        reg = TimingRegistry()
        reg.record("sweep", 1.0, items=8, retries=3, failures=1, timeouts=2)
        doc = json.loads(reg.write_bench("faults", directory=tmp_path).read_text())
        stage = doc["stages"]["sweep"]
        assert stage["retries"] == 3
        assert stage["failures"] == 1
        assert stage["timeouts"] == 2

    def test_timestamp_is_utc_iso8601(self, tmp_path):
        reg = TimingRegistry()
        doc = json.loads(reg.write_bench("ts", directory=tmp_path).read_text())
        stamp = datetime.fromisoformat(doc["timestamp"])
        assert stamp.tzinfo is not None
        assert stamp.utcoffset() == timedelta(0)
        assert abs(datetime.now(timezone.utc) - stamp) < timedelta(minutes=1)

    def test_metrics_section_snapshots_registry(self, tmp_path, monkeypatch):
        from repro.obs import metrics as obs_metrics

        fresh = MetricsRegistry()
        monkeypatch.setattr(obs_metrics, "METRICS", fresh)
        monkeypatch.setattr(timing, "METRICS", fresh)
        fresh.inc("phy.crc_failures", 7)
        fresh.observe("sim.window_per", 0.25, buckets=(0.5, 1.0))
        doc = json.loads(
            TimingRegistry().write_bench("m", directory=tmp_path).read_text()
        )
        assert doc["metrics"]["counters"]["phy.crc_failures"] == 7
        assert doc["metrics"]["histograms"]["sim.window_per"]["count"] == 1

    def test_write_bench_extra_fields(self, tmp_path):
        reg = TimingRegistry()
        path = reg.write_bench("x", directory=tmp_path, extra={"slots": 2000})
        assert json.loads(path.read_text())["slots"] == 2000

    def test_env_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "out"))
        reg = TimingRegistry()
        reg.record("s", 0.1)
        path = reg.write_bench("envtest")
        assert path.parent == tmp_path / "out"
        assert path.exists()

    def test_global_helpers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        timing.REGISTRY.reset()
        with timing.stage("global-stage", items=3):
            pass
        timing.record("global-stage", 0.5)
        path = timing.write_bench("global")
        doc = json.loads(path.read_text())
        assert doc["stages"]["global-stage"]["calls"] == 2
        timing.REGISTRY.reset()
