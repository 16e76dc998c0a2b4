"""Tests for span/event recording and cross-process trace merging."""

import json
import os
from pathlib import Path

import pytest

from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig, train_dqn_multi_seed
from repro.errors import ConfigurationError
from repro.obs import sink, trace
from repro.obs.metrics import METRICS


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def enable(monkeypatch, tmp_path: Path, name: str = "t") -> Path:
    target = tmp_path / f"RUN_{name}.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(target))
    trace.reset()
    return target


class TestDisabled:
    def test_span_yields_none_and_records_nothing(self, tmp_path):
        with trace.span("x", a=1) as sid:
            assert sid is None
        trace.event("y", b=2)
        assert not trace.enabled()
        assert sink.RUN not in sink.state().streams
        assert trace.finish_run() is None
        assert list(tmp_path.iterdir()) == []

    def test_start_run_reports_disabled(self):
        assert trace.start_run(command="test") is False


class TestTargetResolution:
    def test_explicit_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        assert sink.target(sink.RUN) == tmp_path / "t.jsonl"

    def test_run_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "smoke")
        assert sink.target(sink.RUN).name == "RUN_smoke.jsonl"

    def test_truthy_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert sink.target(sink.RUN).name == "RUN_run.jsonl"

    def test_empty_is_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "  ")
        assert sink.target(sink.RUN) is None

    def test_sample_rate_validation(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        for bad in ("2.0", "nope"):
            monkeypatch.setenv("REPRO_TRACE_SAMPLE", bad)
            trace.reset()
            with pytest.raises(ConfigurationError, match="REPRO_TRACE_SAMPLE"):
                trace.enabled()


class TestRecording:
    def test_manifest_is_first_line(self, monkeypatch, tmp_path):
        target = enable(monkeypatch, tmp_path, "manifest")
        assert trace.start_run(command="test", seeds=[1, 2]) is True
        trace.event("ping")
        assert trace.finish_run() == target
        records = read_records(target)
        manifest = records[0]
        assert manifest["type"] == "manifest"
        assert manifest["run"] == "manifest"
        assert manifest["command"] == "test"
        assert manifest["seeds"] == [1, 2]
        assert manifest["trace"] == records[1]["trace"]
        assert records[-1]["type"] == "metrics"

    def test_span_nesting_parents(self, monkeypatch, tmp_path):
        target = enable(monkeypatch, tmp_path)
        with trace.span("outer") as outer_id:
            with trace.span("inner") as inner_id:
                trace.event("tick", n=1)
        trace.finish_run()
        records = read_records(target)
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        events = [r for r in records if r["type"] == "event"]
        assert spans["inner"]["parent"] == outer_id
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["id"] == inner_id
        assert events[0]["span"] == inner_id
        # Spans are written on exit: children precede parents in the file.
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names == ["inner", "outer"]

    def test_nan_and_numpy_fields_serialise(self, monkeypatch, tmp_path):
        import numpy as np

        target = enable(monkeypatch, tmp_path)
        trace.event("weird", loss=float("nan"), arr=np.float64(1.5), obj=object())
        trace.finish_run()
        fields = read_records(target)[1]["fields"]
        assert fields["loss"] is None
        assert fields["arr"] == 1.5
        assert isinstance(fields["obj"], str)

    def test_finish_run_disables_for_rest_of_process(self, monkeypatch, tmp_path):
        target = enable(monkeypatch, tmp_path)
        trace.event("before")
        trace.finish_run()
        n_records = len(read_records(target))
        # Late stragglers must not re-open the file with a second manifest.
        trace.event("after")
        assert not trace.enabled()
        assert len(read_records(target)) == n_records

    def test_no_file_without_records(self, monkeypatch, tmp_path):
        target = enable(monkeypatch, tmp_path)
        assert trace.start_run() is True
        assert trace.finish_run() is None
        assert not target.exists()


class TestSampling:
    def test_sampling_drops_events_not_spans(self, monkeypatch, tmp_path):
        target = enable(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.2")
        trace.reset()
        with trace.span("all"):
            for i in range(500):
                trace.event("tick", n=i)
        trace.finish_run()
        records = read_records(target)
        events = [r for r in records if r["type"] == "event"]
        spans = [r for r in records if r["type"] == "span"]
        assert len(spans) == 1
        assert 0 < len(events) < 300  # ~100 expected at rate 0.2

    def test_decision_is_deterministic(self):
        kept = [trace._keep("abc", seq, 0.5) for seq in range(100)]
        assert kept == [trace._keep("abc", seq, 0.5) for seq in range(100)]
        assert any(kept) and not all(kept)


class TestWorkerEnvelope:
    def test_context_roundtrip(self, monkeypatch, tmp_path):
        target = enable(monkeypatch, tmp_path)
        with trace.span("dispatch") as dispatch_id:
            ctx = sink.worker_context()
        assert ctx is not None
        assert ctx.parent == dispatch_id
        assert ctx.telem_interval == 0  # telemetry is off
        assert sink.in_origin(ctx)

        # Simulate the worker side: buffer, then merge back at the origin.
        parent_state_id = sink.state().trace_id
        sink.activate_worker(ctx)
        with trace.span("task"):
            trace.event("inside")
        envelope = sink.drain_worker("result")
        assert [r["type"] for r in envelope.records] == ["event", "span"]
        assert all(r["trace"] == parent_state_id for r in envelope.records)
        assert sink.drain_worker(None).records == ()  # drained

        sink.reset()
        enable(monkeypatch, tmp_path)
        assert sink.absorb(envelope) == "result"
        trace.finish_run()
        absorbed = read_records(target)
        assert any(r.get("name") == "task" for r in absorbed)

    def test_span_ids_continue_across_activations(self, monkeypatch, tmp_path):
        enable(monkeypatch, tmp_path)
        ctx = sink.worker_context()
        seqs = []
        for _ in range(3):  # one worker serving three tasks
            sink.activate_worker(ctx)
            with trace.span("task") as sid:
                seqs.append(int(sid.split(".")[1], 16))
        assert seqs == sorted(set(seqs))

    def test_worker_context_none_when_disabled(self):
        assert sink.worker_context() is None

    def test_unactivated_fork_records_nothing(self, monkeypatch, tmp_path):
        target = enable(monkeypatch, tmp_path)
        trace.event("parent")
        size = target.stat().st_size
        pid = os.fork()
        if pid == 0:  # the child: everything must stay off
            quiet = not trace.enabled() and sink.worker_context() is None
            with trace.span("child"):
                trace.event("child")
            os._exit(0 if quiet and sink.finish() == {} else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert target.stat().st_size == size
        assert trace.enabled()


class TestParallelMergedTrace:
    def test_multi_seed_training_merges_into_one_trace(self, monkeypatch, tmp_path):
        """The acceptance scenario: one trace file, worker spans inside."""
        target = enable(monkeypatch, tmp_path, "fanout")
        seeds = (0, 1, 2)
        trainer = TrainerConfig(episodes=2, steps_per_episode=10)
        # env_batch=1 keeps one pool task per seed: this test is about the
        # per-task trace merge, which needs a genuine multi-task fan-out.
        train_dqn_multi_seed(
            MDPConfig(), seeds=seeds, trainer=trainer, workers=2, env_batch=1
        )
        trace.finish_run()
        records = read_records(target)

        trace_ids = {r["trace"] for r in records if "trace" in r}
        assert len(trace_ids) == 1  # worker records carry the parent id

        spans = [r for r in records if r["type"] == "span"]
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        dispatch = by_name["exec/dispatch"][0]
        tasks = by_name["exec/task"]
        runs = by_name["train/run"]
        assert len(tasks) == len(seeds)
        assert len(runs) == len(seeds)
        assert all(t["parent"] == dispatch["id"] for t in tasks)
        task_ids = {t["id"] for t in tasks}
        assert len(task_ids) == len(seeds)  # no span-id collisions
        assert all(r["parent"] in task_ids for r in runs)

        episodes = [
            r for r in records if r["type"] == "event" and r["name"] == "dqn.episode"
        ]
        assert len(episodes) == len(seeds) * trainer.episodes

        # Worker metrics merged back into the parent registry.
        assert METRICS.counter("dqn.episodes").value == len(seeds) * trainer.episodes
