"""Tests for the live telemetry dashboard (``repro obs watch``)."""

import io

from repro.obs import telemetry
from repro.obs.metrics import METRICS
from repro.obs.watch import SPARK_CHARS, render_dashboard, sparkline, watch


class TestSparkline:
    def test_scales_to_eight_levels(self):
        spark = sparkline([0.0, 0.5, 1.0])
        assert spark == SPARK_CHARS[0] + SPARK_CHARS[4] + SPARK_CHARS[7]

    def test_flat_series_renders_low(self):
        assert sparkline([2.0, 2.0, 2.0]) == SPARK_CHARS[0] * 3

    def test_width_keeps_the_tail(self):
        spark = sparkline(list(range(100)), width=10)
        assert len(spark) == 10

    def test_empty(self):
        assert sparkline([]) == ""


def _write_field_run(monkeypatch, tmp_path, *, adversary="reactive"):
    path = tmp_path / "TELEM_d.jsonl"
    monkeypatch.setenv("REPRO_TELEM", str(path))
    telemetry.reset()
    for window in range(3):
        for shard, networks in ((0, [0, 1]), (1, [2, 3])):
            jammed = [window + 1, 0] if shard == 0 else [0, 1]
            telemetry.record_frame(
                telemetry.field_frame(
                    window=window,
                    slot0=window * 10,
                    slots=10,
                    shard=shard,
                    labels={"adversary": adversary, "scheme": "deception"},
                    networks=networks,
                    jammed=jammed,
                    attempts=[j + 1 for j in jammed],
                    delivered=[280, 300],
                    attempted=[320, 320],
                    hops=[2, 1],
                    neg_sum=[0.8, 0.4],
                    lat_counts=[2] * (len(telemetry.LATENCY_BUCKETS) + 1),
                    lat_min=0.02,
                    lat_max=1.5,
                    tokens=[4.0, 6.0],
                )
            )
    METRICS.inc("jam.duty_starved", 7, labels={"adversary": adversary, "network": 0})
    METRICS.inc("defense.decoys", 30, labels={"scheme": "deception", "network": 2})
    telemetry.finish_run()
    return path


class TestRenderDashboard:
    def test_field_sections(self, monkeypatch, tmp_path):
        path = _write_field_run(monkeypatch, tmp_path)
        text = render_dashboard(path)
        assert "field fleet  (4 networks, 3 windows, 10 slots/window)" in text
        assert "jam rate" in text
        assert "goodput" in text
        assert "duty tokens" in text
        assert "negotiation  p50=" in text
        assert "hottest networks  #0:" in text
        assert "adversary hit rate  reactive:" in text
        # the final labelled counters roll up over the network label
        assert "jam.duty_starved" in text
        assert "defense.decoys" in text
        assert any(ch in text for ch in SPARK_CHARS)

    def test_same_dashboard_for_any_frame_order(self, monkeypatch, tmp_path):
        path = _write_field_run(monkeypatch, tmp_path)
        lines = path.read_text().splitlines()
        header, frames, metrics = lines[0], lines[1:-1], lines[-1]
        reordered = "\n".join([header] + frames[::-1] + [metrics]) + "\n"
        other = tmp_path / "TELEM_r.jsonl"
        other.write_text(reordered)
        a = render_dashboard(path).replace(str(path), "X")
        b = render_dashboard(other).replace(str(other), "X")
        assert a == b

    def test_generic_series(self, monkeypatch, tmp_path):
        path = tmp_path / "TELEM_g.jsonl"
        monkeypatch.setenv("REPRO_TELEM", str(path))
        telemetry.reset()
        rec = telemetry.FlightRecorder("dqn", interval=2)
        for i in range(6):
            rec.tick(reward=float(i), episodes=1.0)
        telemetry.finish_run()
        text = render_dashboard(path)
        assert "dqn  (3 windows, 2 ticks/window)" in text
        assert "reward" in text

    def test_header_only_file(self, monkeypatch, tmp_path):
        path = tmp_path / "TELEM_h.jsonl"
        monkeypatch.setenv("REPRO_TELEM", str(path))
        telemetry.reset()
        telemetry.record_frame({"type": "frame", "series": "x", "window": 0})
        telemetry.finish_run()
        text = render_dashboard(path)
        assert "telemetry" in text


class TestWatch:
    def test_once_renders_single_frame_without_clearing(self, monkeypatch, tmp_path):
        path = _write_field_run(monkeypatch, tmp_path)
        out = io.StringIO()
        assert watch(path, iterations=1, stream=out) == 0
        text = out.getvalue()
        assert "\x1b[2J" not in text
        assert "field fleet" in text

    def test_looping_clears_between_frames(self, monkeypatch, tmp_path):
        path = _write_field_run(monkeypatch, tmp_path)
        out = io.StringIO()
        assert watch(path, iterations=2, interval=0.0, stream=out) == 0
        assert out.getvalue().count("\x1b[2J\x1b[H") == 2

    def test_missing_file_waits_instead_of_crashing(self, tmp_path):
        # Live mode waits for the file; one-shot mode fails on it.
        missing = tmp_path / "absent.jsonl"
        out = io.StringIO()
        assert watch(missing, iterations=2, interval=0.0, stream=out) == 0
        assert out.getvalue().count("waiting for telemetry") == 2
        once = io.StringIO()
        assert watch(missing, iterations=1, stream=once) == 1
        assert "absent.jsonl" in once.getvalue()
