"""Trace manifests and telemetry headers record every resolved knob."""

import json

from repro import knobs
from repro.cli import main
from repro.obs import telemetry


def first_record(path):
    return json.loads(path.read_text().splitlines()[0])


def test_trace_manifest_records_knob_flags(monkeypatch, tmp_path):
    target = tmp_path / "RUN_knobs.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(target))
    # main() exports --workers; set it first so the test restores it.
    monkeypatch.setenv("REPRO_WORKERS", "")
    argv = ["-q", "train", "--workers", "2", "--episodes", "1", "--steps", "20"]
    assert main(argv + ["--eval-slots", "50"]) == 0
    manifest = first_record(target)
    assert manifest["type"] == "manifest"
    assert set(manifest["knobs"]) == set(knobs.KNOBS)
    assert len(manifest["knobs"]) == 24
    assert manifest["knobs"]["REPRO_WORKERS"] == 2
    assert manifest["knobs"]["REPRO_TRACE"] == str(target)
    assert manifest["env"]["REPRO_WORKERS"] == "2"


def test_telemetry_header_records_knobs(monkeypatch, tmp_path):
    target = tmp_path / "TELEM_knobs.jsonl"
    monkeypatch.setenv("REPRO_TELEM", str(target))
    monkeypatch.setenv("REPRO_CHANNEL", " Hybrid ")
    telemetry.reset()
    telemetry.record_frame({"type": "frame", "series": "x", "window": 0})
    telemetry.finish_run()
    header = first_record(target)
    assert header["type"] == "header"
    assert set(header["knobs"]) == set(knobs.KNOBS)
    assert header["knobs"]["REPRO_CHANNEL"] == "hybrid"
    assert header["env"]["REPRO_CHANNEL"] == " Hybrid "
