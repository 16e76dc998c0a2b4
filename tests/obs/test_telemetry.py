"""Tests for the windowed telemetry stream (REPRO_TELEM)."""

import json
import random

import pytest

from repro import knobs
from repro.errors import ConfigurationError, ReproError
from repro.obs import sink, telemetry, trace
from repro.obs.metrics import METRICS

#: The telemetry window length when ``REPRO_TELEM_INTERVAL`` is unset.
INTERVAL_DEFAULT = knobs.KNOBS["REPRO_TELEM_INTERVAL"].default


def _set_target(monkeypatch, tmp_path, name="t"):
    path = tmp_path / f"TELEM_{name}.jsonl"
    monkeypatch.setenv("REPRO_TELEM", str(path))
    telemetry.reset()
    return path


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTargetResolution:
    def test_off_by_default(self):
        assert sink.target(sink.TELEM) is None
        assert not telemetry.enabled()

    def test_truthy_uses_default_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEM", "1")
        assert sink.target(sink.TELEM).name == "TELEM_run.jsonl"

    def test_name_lands_in_artifact_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEM", "smoke")
        assert sink.target(sink.TELEM).name == "TELEM_smoke.jsonl"

    def test_path_used_verbatim(self, monkeypatch, tmp_path):
        target = tmp_path / "x.jsonl"
        monkeypatch.setenv("REPRO_TELEM", str(target))
        assert sink.target(sink.TELEM) == target

    def test_interval_env(self, monkeypatch, tmp_path):
        _set_target(monkeypatch, tmp_path)
        assert telemetry.interval() == INTERVAL_DEFAULT
        monkeypatch.setenv("REPRO_TELEM_INTERVAL", "7")
        telemetry.reset()
        assert telemetry.interval() == 7

    @pytest.mark.parametrize("bad", ["0", "-3", "x"])
    def test_invalid_interval_rejected(self, monkeypatch, tmp_path, bad):
        monkeypatch.setenv("REPRO_TELEM_INTERVAL", bad)
        _set_target(monkeypatch, tmp_path)
        with pytest.raises(ConfigurationError, match="REPRO_TELEM_INTERVAL"):
            telemetry.interval()


class TestLifecycle:
    def test_record_and_finish(self, monkeypatch, tmp_path):
        path = _set_target(monkeypatch, tmp_path)
        assert telemetry.enabled()
        telemetry.record_frame({"type": "frame", "series": "x", "window": 0})
        METRICS.inc("sim.slots", 5)
        out = telemetry.finish_run()
        assert out == path
        records = _records(path)
        assert records[0]["type"] == "header"
        assert records[0]["interval"] == INTERVAL_DEFAULT
        assert records[1]["series"] == "x"
        assert records[-1]["type"] == "metrics"
        assert records[-1]["counters"]["sim.slots"] == 5
        # finish_run disables until the next reset
        assert not telemetry.enabled()

    def test_no_frames_no_file(self, monkeypatch, tmp_path):
        path = _set_target(monkeypatch, tmp_path)
        assert telemetry.finish_run() is None
        assert not path.exists()

    def test_disable_overrides_env(self, monkeypatch, tmp_path):
        _set_target(monkeypatch, tmp_path)
        telemetry.disable()
        assert not telemetry.enabled()
        telemetry.record_frame({"type": "frame"})  # swallowed
        assert telemetry.finish_run() is None


def _telem_context(interval):
    return sink.WorkerContext(
        trace_id="", parent=None, sample=1.0, origin_pid=0, telem_interval=interval
    )


class TestWorkerProtocol:
    def test_activation_buffers_frames(self, monkeypatch, tmp_path):
        _set_target(monkeypatch, tmp_path)
        ctx = sink.worker_context()
        assert ctx.telem_interval == INTERVAL_DEFAULT
        assert ctx.trace_id == ""  # tracing is off
        sink.activate_worker(_telem_context(5))
        assert telemetry.enabled()
        assert telemetry.interval() == 5
        telemetry.record_frame({"type": "frame", "series": "x", "window": 0})
        frames = sink.drain_worker(None).records
        assert [f["window"] for f in frames] == [0]
        assert sink.drain_worker(None).records == ()  # drained

    def test_activation_with_zero_disables(self):
        sink.activate_worker(_telem_context(0))
        assert not telemetry.enabled()
        assert sink.worker_context() is None

    def test_telemetry_only_context_resets_metrics(self, monkeypatch, tmp_path):
        _set_target(monkeypatch, tmp_path)
        METRICS.inc("sim.slots", 5)
        sink.activate_worker(sink.worker_context())
        assert telemetry.enabled()
        assert not trace.enabled()
        assert METRICS.snapshot()["counters"] == {}

    def test_reactivation_clears_stale_frames(self):
        sink.activate_worker(_telem_context(5))
        telemetry.record_frame({"type": "frame", "window": 0})
        sink.activate_worker(_telem_context(5))  # retry / next task
        assert sink.drain_worker(None).records == ()

    def test_absorb_appends_to_parent_sink(self, monkeypatch, tmp_path):
        path = _set_target(monkeypatch, tmp_path)
        frames = tuple({"type": "frame", "series": "x", "window": w} for w in (0, 1))
        sink.absorb(sink.TracedResult(result=None, records=frames, metrics={}))
        telemetry.finish_run()
        kinds = [r["type"] for r in _records(path)]
        assert kinds == ["header", "frame", "frame", "metrics"]


class TestFlightRecorder:
    def test_inert_when_disabled(self):
        rec = telemetry.FlightRecorder("dqn")
        assert rec.tick(reward=1.0) is None
        assert rec.flush() is None

    def test_windows_sum_ticks(self, monkeypatch, tmp_path):
        path = _set_target(monkeypatch, tmp_path)
        rec = telemetry.FlightRecorder("dqn", interval=2, labels={"batch": 3})
        assert rec.tick(reward=1.0) is None
        frame = rec.tick(reward=2.0, loss=0.5)
        assert frame["window"] == 0
        assert frame["ticks"] == 2
        assert frame["values"] == {"loss": 0.5, "reward": 3.0}
        assert frame["labels"] == {"batch": "3"}
        rec.tick(reward=5.0)
        partial = rec.flush()
        assert partial["window"] == 1
        assert partial["ticks"] == 1
        telemetry.finish_run()
        windows = [r["window"] for r in _records(path) if r["type"] == "frame"]
        assert windows == [0, 1]

    def test_interval_validated(self, monkeypatch, tmp_path):
        _set_target(monkeypatch, tmp_path)
        with pytest.raises(ConfigurationError):
            telemetry.FlightRecorder("dqn", interval=0)


class TestReadSide:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            telemetry.load_telemetry(tmp_path / "nope.jsonl")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError):
            telemetry.load_telemetry(path)

    def test_malformed_lines_tolerated(self, monkeypatch, tmp_path):
        path = _set_target(monkeypatch, tmp_path)
        telemetry.record_frame({"type": "frame", "series": "x", "window": 0})
        telemetry.finish_run()
        with path.open("a") as handle:
            handle.write("garbage\n")
        doc = telemetry.load_telemetry(path)
        assert doc.malformed == 1
        assert doc.head["type"] == "header"
        assert doc.metrics is not None
        assert len(doc.frames) == 1

    def test_is_telemetry_file(self, monkeypatch, tmp_path):
        path = _set_target(monkeypatch, tmp_path)
        telemetry.record_frame({"type": "frame", "series": "x", "window": 0})
        telemetry.finish_run()
        assert sink.read(path).stream == sink.TELEM
        trace_file = tmp_path / "RUN_x.jsonl"
        trace_file.write_text(json.dumps({"type": "manifest"}) + "\n")
        assert sink.read(trace_file).stream == sink.RUN


def _shard_frame(window, shard, networks, jammed, **overrides):
    frame = telemetry.field_frame(
        window=window,
        slot0=window * 10,
        slots=10,
        shard=shard,
        labels={"adversary": "reactive"},
        networks=networks,
        jammed=jammed,
        attempts=[j + 1 for j in jammed],
        delivered=[100 + n for n in networks],
        attempted=[120 + n for n in networks],
        hops=[1] * len(networks),
        neg_sum=[0.5 * (n + 1) for n in networks],
        lat_counts=[1] * (len(telemetry.LATENCY_BUCKETS) + 1),
        lat_min=0.01,
        lat_max=2.0,
        **overrides,
    )
    return frame


class TestMergeFrames:
    def _doc(self, frames, tmp_path):
        doc = sink.ObsDoc(path=tmp_path / "t.jsonl")
        doc.frames = list(frames)
        return doc

    def test_field_merge_places_by_global_index(self, tmp_path):
        frames = [
            _shard_frame(0, 0, [0, 2], [3, 4]),
            _shard_frame(0, 1, [1, 3], [5, 6]),
        ]
        merged = telemetry.merge_frames(self._doc(frames, tmp_path))["field"]
        assert len(merged) == 1
        window = merged[0]
        assert window["networks"] == [0, 1, 2, 3]
        assert window["jammed"] == [3, 5, 4, 6]
        assert window["jam_rate"] == (3 + 4 + 5 + 6) / (10 * 4)
        # latency bucket counts are integer sums across shards
        assert window["lat_counts"][0] == 2

    def test_field_merge_is_order_independent(self, tmp_path):
        frames = [
            _shard_frame(w, s, [2 * s, 2 * s + 1], [w + s, w + 2 * s])
            for w in range(4)
            for s in range(3)
        ]
        reference = telemetry.merge_frames(self._doc(frames, tmp_path))
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(frames)
            rng.shuffle(shuffled)
            assert telemetry.merge_frames(self._doc(shuffled, tmp_path)) == reference

    def test_field_merge_dedupes_retried_shards_last_wins(self, tmp_path):
        stale = _shard_frame(0, 0, [0, 1], [9, 9])
        fresh = _shard_frame(0, 0, [0, 1], [1, 2])
        other = _shard_frame(0, 1, [2], [5])
        merged = telemetry.merge_frames(
            self._doc([stale, fresh, other], tmp_path)
        )["field"]
        assert merged[0]["jammed"] == [1, 2, 5]

    def test_field_merge_tokens_optional(self, tmp_path):
        with_tokens = _shard_frame(0, 0, [0], [1], tokens=[0.25])
        without = _shard_frame(0, 1, [1], [2])
        merged = telemetry.merge_frames(
            self._doc([with_tokens, without], tmp_path)
        )["field"]
        assert merged[0]["tokens"] == [0.25, 0.0]

    def test_generic_merge_last_wins_by_window(self, tmp_path):
        frames = [
            {"type": "frame", "series": "dqn", "window": 1, "values": {"r": 2.0}},
            {"type": "frame", "series": "dqn", "window": 0, "values": {"r": 9.0}},
            {"type": "frame", "series": "dqn", "window": 0, "values": {"r": 1.0}},
        ]
        merged = telemetry.merge_frames(self._doc(frames, tmp_path))["dqn"]
        assert [w["window"] for w in merged] == [0, 1]
        assert merged[0]["values"]["r"] == 1.0

    def test_generic_merge_sums_tasks_per_window(self, tmp_path):
        def frame(seeds, reward):
            labels = {"batch": "1", "seeds": seeds}
            return {
                "type": "frame",
                "series": "dqn",
                "window": 0,
                "ticks": 2,
                "labels": labels,
                "values": {"r": reward},
            }

        # Seed 1's task ran twice (a retry); its last frame wins.
        frames = [frame("0", 1.0), frame("1", 9.0), frame("2", 4.0), frame("1", 2.0)]
        merged = telemetry.merge_frames(self._doc(frames, tmp_path))["dqn"]
        assert merged == [
            {"window": 0, "ticks": 6, "labels": {"batch": "1"}, "values": {"r": 7.0}}
        ]

    def test_pooled_dqn_run_keeps_every_task(self, monkeypatch, tmp_path):
        from repro.core.mdp import MDPConfig
        from repro.core.trainer import TrainerConfig, train_dqn_multi_seed

        path = _set_target(monkeypatch, tmp_path)
        train_dqn_multi_seed(
            MDPConfig(),
            seeds=(0, 1, 2),
            trainer=TrainerConfig(episodes=2, steps_per_episode=10),
            workers=1,
            env_batch=1,
        )
        telemetry.finish_run()
        (window,) = telemetry.merge_frames(telemetry.load_telemetry(path))["dqn"]
        assert window["ticks"] == 6
        assert window["values"]["episodes"] == 6.0
        assert window["labels"] == {"batch": "1"}
