"""Tests for the structured logger and the --quiet behaviour."""

import io
import json
import logging

from repro.obs import log as obs_log
from repro.obs import trace


class TestConfigure:
    def test_stream_and_level(self):
        stream = io.StringIO()
        obs_log.configure(stream=stream)
        obs_log.get_logger("test").info("hello", n=3)
        out = stream.getvalue()
        assert "hello n=3" in out
        assert "repro.test" in out

    def test_quiet_drops_info(self):
        stream = io.StringIO()
        obs_log.configure(quiet=True, stream=stream)
        logger = obs_log.get_logger("test")
        logger.info("chatter")
        logger.error("important")
        out = stream.getvalue()
        assert "chatter" not in out
        assert "important" in out

    def test_reconfigure_replaces_handler(self):
        first, second = io.StringIO(), io.StringIO()
        obs_log.configure(stream=first)
        obs_log.configure(stream=second)
        obs_log.get_logger().info("once")
        assert first.getvalue() == ""
        assert "once" in second.getvalue()
        root = logging.getLogger(obs_log.ROOT_LOGGER)
        assert len(root.handlers) == 1
        assert root.propagate is False


class TestStructuredFormatting:
    def test_values_with_spaces_are_quoted(self):
        stream = io.StringIO()
        obs_log.configure(stream=stream)
        obs_log.get_logger().info("msg", path="a b")
        assert "path='a b'" in stream.getvalue()

    def test_floats_compact(self):
        stream = io.StringIO()
        obs_log.configure(stream=stream)
        obs_log.get_logger().info("msg", rate=0.3333333333)
        assert "rate=0.333333" in stream.getvalue()


class TestTraceMirroring:
    def test_log_lines_become_trace_events(self, monkeypatch, tmp_path):
        target = tmp_path / "RUN_log.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(target))
        trace.reset()
        obs_log.configure(stream=io.StringIO())
        obs_log.get_logger("cli").info("traced line", k=1)
        trace.finish_run()
        records = [json.loads(line) for line in target.read_text().splitlines()]
        events = [r for r in records if r["type"] == "event" and r["name"] == "log"]
        assert len(events) == 1
        assert events[0]["fields"]["message"] == "traced line k=1"
        assert events[0]["fields"]["logger"] == "repro.cli"

    def test_no_trace_event_when_disabled(self, tmp_path):
        obs_log.configure(stream=io.StringIO())
        obs_log.get_logger().info("untraced")
        assert not trace.enabled()
        assert list(tmp_path.iterdir()) == []
