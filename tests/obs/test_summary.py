"""Tests for trace summarisation and the ``repro obs`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs import trace
from repro.obs.metrics import METRICS
from repro.obs.sink import ObsDoc, read
from repro.obs.summary import render_summary, span_tree


def write_demo_trace(monkeypatch, tmp_path, name="demo"):
    target = tmp_path / f"RUN_{name}.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(target))
    trace.reset()
    trace.start_run(command="demo")
    with trace.span("cli/demo"):
        with trace.span("sim/run", slots=3):
            for i in range(3):
                trace.event("sim.slot", slot=i)
        METRICS.inc("sim.slots", 3)
        METRICS.set("dqn.epsilon", 0.5)
        METRICS.observe("exec.dispatch_seconds", 0.02)
    trace.finish_run()
    return target


class TestLoadTrace:
    def test_buckets_record_types(self, monkeypatch, tmp_path):
        doc = read(write_demo_trace(monkeypatch, tmp_path))
        assert doc.head["run"] == "demo"
        assert len(doc.spans) == 2
        assert len(doc.events) == 3
        assert doc.metrics["counters"]["sim.slots"] == 3
        assert doc.malformed == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            read(tmp_path / "nope.jsonl")

    def test_empty_file_raises(self, tmp_path):
        empty = tmp_path / "RUN_empty.jsonl"
        empty.write_text("")
        with pytest.raises(ReproError):
            read(empty)

    def test_garbled_lines_tolerated(self, monkeypatch, tmp_path):
        target = write_demo_trace(monkeypatch, tmp_path)
        with target.open("a") as handle:
            handle.write("{truncated\n")
            handle.write(json.dumps({"type": "mystery"}) + "\n")
        doc = read(target)
        assert doc.malformed == 2
        assert len(doc.spans) == 2  # good records still load


class TestSpanTree:
    def test_aggregates_siblings_by_name(self, monkeypatch, tmp_path):
        doc = read(write_demo_trace(monkeypatch, tmp_path))
        tree = span_tree(doc)
        assert len(tree) == 1
        name, count, dur, children = tree[0]
        assert name == "cli/demo" and count == 1 and dur > 0
        assert children[0][0] == "sim/run"

    def test_orphaned_parent_becomes_root(self):
        doc = ObsDoc(path=None)
        doc.spans = [
            {"id": "1.1", "parent": "ghost", "name": "lost", "dur": 0.1},
        ]
        tree = span_tree(doc)
        assert tree[0][0] == "lost"


class TestRenderSummary:
    def test_sections_present(self, monkeypatch, tmp_path):
        text = render_summary(write_demo_trace(monkeypatch, tmp_path))
        assert "run=demo" in text
        assert "cli/demo" in text
        assert "sim/run" in text
        assert "sim.slot" in text
        assert "sim.slots" in text
        assert "dqn.epsilon" in text
        assert "exec.dispatch_seconds" in text
        assert "p99" in text

    def test_top_limits_listing(self, monkeypatch, tmp_path):
        target = tmp_path / "RUN_many.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(target))
        trace.reset()
        for i in range(5):
            METRICS.inc(f"counter.{i}")
        trace.event("seed")  # force the file open
        trace.finish_run()
        text = render_summary(target, top=2)
        assert "counters (5)" in text
        assert text.count("counter.") == 2


class TestObsCommand:
    def test_cli_renders_trace(self, monkeypatch, tmp_path, capsys):
        target = write_demo_trace(monkeypatch, tmp_path)
        # The obs command reads traces and must not truncate/extend the
        # file it is summarising even with REPRO_TRACE still pointing there.
        size_before = target.stat().st_size
        assert main(["obs", str(target)]) == 0
        out = capsys.readouterr().out
        assert "cli/demo" in out
        assert target.stat().st_size == size_before

    def test_cli_missing_trace_fails(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "nope.jsonl")]) == 1

    def test_fresh_process_obs_does_not_append(self, monkeypatch, tmp_path):
        """REPRO_TRACE still set + no prior run state (a fresh process):
        the obs command must not lazily open the trace and append to it."""
        target = write_demo_trace(monkeypatch, tmp_path)
        trace.reset()  # back to the pristine lazy state of a new process
        size_before = target.stat().st_size
        assert main(["obs", str(target)]) == 0
        assert target.stat().st_size == size_before


class TestObsSubcommands:
    def _write_telemetry(self, monkeypatch, tmp_path):
        from repro.obs import telemetry

        target = tmp_path / "TELEM_demo.jsonl"
        monkeypatch.setenv("REPRO_TELEM", str(target))
        telemetry.reset()
        rec = telemetry.FlightRecorder("dqn", interval=1)
        rec.tick(reward=1.0)
        rec.tick(reward=2.0)
        METRICS.inc("jam.locks", 2, labels={"adversary": "reactive", "network": 0})
        telemetry.finish_run()
        return target

    def test_explicit_summary_action(self, monkeypatch, tmp_path, capsys):
        target = write_demo_trace(monkeypatch, tmp_path)
        assert main(["obs", "summary", str(target)]) == 0
        assert "cli/demo" in capsys.readouterr().out

    def test_summary_routes_telemetry_to_dashboard(self, monkeypatch, tmp_path, capsys):
        target = self._write_telemetry(monkeypatch, tmp_path)
        assert main(["obs", str(target)]) == 0  # back-compat spelling
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert "dqn" in out

    def test_export_writes_prom_and_series(self, monkeypatch, tmp_path, capsys):
        target = self._write_telemetry(monkeypatch, tmp_path)
        assert main(["obs", "export", str(target)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "TELEM_demo.prom") in out
        assert (tmp_path / "TELEM_demo.prom").read_text().endswith("# EOF\n")
        assert (tmp_path / "TELEM_demo_series.jsonl").is_file()

    def test_watch_once(self, monkeypatch, tmp_path, capsys):
        target = self._write_telemetry(monkeypatch, tmp_path)
        assert main(["obs", "watch", str(target), "--once"]) == 0
        out = capsys.readouterr().out
        assert "dqn" in out
        assert "\x1b[2J" not in out

    def test_watch_once_fails_without_telemetry(self, tmp_path, capsys):
        missing = tmp_path / "TELEM_none.jsonl"
        assert main(["obs", "watch", str(missing), "--once"]) == 1
        assert "TELEM_none.jsonl" in capsys.readouterr().out

    def test_obs_never_writes_telemetry(self, monkeypatch, tmp_path):
        from repro.obs import telemetry

        target = self._write_telemetry(monkeypatch, tmp_path)
        telemetry.reset()  # fresh-process lazy state, env still set
        size_before = target.stat().st_size
        assert main(["obs", str(target)]) == 0
        assert target.stat().st_size == size_before
