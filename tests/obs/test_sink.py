"""Tests for the one observability sink: routing, lifecycle and the reader."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import sink, telemetry, trace


def records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture
def both(monkeypatch, tmp_path):
    """Tracing and telemetry on, writing into ``tmp_path``."""
    run, telem = tmp_path / "RUN_both.jsonl", tmp_path / "TELEM_both.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(run))
    monkeypatch.setenv("REPRO_TELEM", str(telem))
    sink.reset()
    return run, telem


class TestRouting:
    def test_each_record_type_reaches_its_stream(self, both):
        run, telem = both
        with trace.span("outer"):
            trace.event("tick")
            telemetry.record_frame({"type": "frame", "series": "x", "window": 0})
        assert sink.finish() == {sink.RUN: run, sink.TELEM: telem}
        run_types = [r["type"] for r in records(run)]
        telem_types = [r["type"] for r in records(telem)]
        assert run_types == ["manifest", "event", "span", "metrics"]
        assert telem_types == ["header", "frame", "metrics"]
        # Only the trace's metrics record names the trace id.
        assert "trace" in records(run)[-1]
        assert "trace" not in records(telem)[-1]

    def test_emit_writes_the_record_verbatim(self, both):
        run, _ = both
        record = {"type": "event", "name": "raw", "nested": {"b": 1, "a": [2]}}
        sink.emit(record)
        sink.finish()
        assert records(run)[1] == record

    def test_emit_to_a_closed_stream_is_dropped(self, both):
        _, telem = both
        sink.finish(sink.TELEM)
        sink.emit({"type": "frame", "window": 0})
        assert not telem.exists()

    def test_finishing_one_stream_keeps_the_other(self, both):
        run, telem = both
        trace.event("first")
        telemetry.record_frame({"type": "frame", "series": "x", "window": 0})
        assert trace.finish_run() == run
        assert not trace.enabled()
        assert telemetry.enabled()
        telemetry.record_frame({"type": "frame", "series": "x", "window": 1})
        assert telemetry.finish_run() == telem
        assert [r.get("window") for r in records(telem)] == [None, 0, 1, None]

    def test_disable_turns_every_stream_off(self, both):
        sink.disable()
        assert not trace.enabled()
        assert not telemetry.enabled()
        assert sink.worker_context() is None
        assert sink.finish() == {}

    def test_exit_hook_finishes_open_files(self, both):
        run, telem = both
        trace.event("late")
        sink._finish_at_exit()
        assert records(run)[-1]["type"] == "metrics"
        assert not telem.exists()  # telemetry recorded nothing

    def test_exit_hook_without_state_does_nothing(self, monkeypatch, tmp_path):
        # No state yet: the hook must not resolve (here, bad) knobs.
        monkeypatch.setenv("REPRO_TELEM", str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_TELEM_INTERVAL", "bad")
        sink.reset()
        sink._finish_at_exit()
        assert sink._STATE is None


class TestRead:
    def write(self, path, *lines):
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_routes_on_the_first_record(self, tmp_path):
        run = self.write(tmp_path / "a.jsonl", json.dumps({"type": "manifest"}))
        telem = self.write(tmp_path / "b.jsonl", json.dumps({"type": "frame"}))
        assert sink.read(run).stream == sink.RUN
        assert sink.read(telem).stream == sink.TELEM
        assert sink.read(telem).frames == [{"type": "frame"}]

    def test_tolerates_blank_and_damaged_lines(self, tmp_path):
        path = self.write(
            tmp_path / "t.jsonl",
            json.dumps({"type": "header", "run": "x"}),
            "",
            "   ",
            "{truncated",
            "[1, 2]",
            json.dumps({"type": "span", "id": "1.1"}),  # the other stream's
            json.dumps({"type": "header", "run": "again"}),
            json.dumps({"type": "frame", "window": 0}),
            json.dumps({"type": "metrics", "counters": {"a": 1}}),
            json.dumps({"type": "metrics", "counters": {"a": 2}}),
        )
        doc = sink.read(path)
        assert doc.stream == sink.TELEM
        assert doc.head == {"type": "header", "run": "x"}
        assert len(doc.frames) == 1
        assert doc.spans == []
        assert doc.metrics["counters"] == {"a": 2}  # last wins
        assert doc.malformed == 4

    def test_explicit_stream_overrides_the_first_record(self, tmp_path):
        path = self.write(
            tmp_path / "t.jsonl",
            json.dumps({"type": "manifest"}),
            json.dumps({"type": "frame", "window": 0}),
        )
        doc = sink.read(path, sink.TELEM)
        assert doc.head is None
        assert len(doc.frames) == 1
        assert doc.malformed == 1

    def test_missing_and_empty_files_raise(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            sink.read(tmp_path / "absent.jsonl")
        empty = self.write(tmp_path / "e.jsonl", "", "garbage")
        with pytest.raises(ReproError, match="no RUN records"):
            sink.read(empty)
