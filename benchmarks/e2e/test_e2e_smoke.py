"""Smoke test of the end-to-end benchmark at its ``smoke`` budget.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(out: Path, trace: int) -> list[dict]:
    """All four workloads at the smoke budget; returns the parsed stdout."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--budget",
            "smoke",
            "--seconds",
            "0.5",
            "--seed",
            "1",
            "--trace",
            str(trace),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def printed_units(lines: list[dict]) -> dict[tuple[str, str], str]:
    return {
        (line["workload"], line["metric"]): line["unit"]
        for line in lines
        if "metric" in line
    }


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    lines = run_benchmark(tmp_path, trace=0)
    assert "header" in lines[0]
    assert lines[0]["header"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    result = lines[-1]
    assert result["correct"] and result["failed"] == 0
    units = printed_units(lines)
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            assert units[(workload, metric["name"])] == metric["unit"]
            reported = result["metrics"][f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0
        assert (tmp_path / f"{workload}-seed1.json").is_file()


def test_traced_run_prints_every_layer_with_nonnegative_residuals(tmp_path):
    lines = run_benchmark(tmp_path, trace=1)
    result = lines[-1]
    assert result["correct"]
    units = printed_units(lines)
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert units[(workload, metric["name"])] == metric["unit"]
            if "residual" in metric["name"]:
                assert result["metrics"][f"{workload}/{metric['name']}"]["value"] >= 0
        trace = json.loads((tmp_path / f"TRACE_{workload}.json").read_text())
        assert trace["spans"]["rows"]


def test_corrupted_served_action_fails_the_serve_check(monkeypatch):
    sys.path.insert(0, str(HERE))
    import workloads

    original = workloads.PolicyStore.decide_batch

    def corrupted(store, policies, observations):
        actions = original(store, policies, observations)
        actions[0] = (actions[0] + 1) % store.num_actions
        return actions

    monkeypatch.setattr(workloads.PolicyStore, "decide_batch", corrupted)
    serve = workloads.ServeOpen(1, workloads.BUDGETS["smoke"]["serve-open"])
    serve.setup()
    serve.open_loop(2000)
    serve.closed_round()
    errors = serve.check()
    assert any("2000/s differ from decide_serial" in e for e in errors)
    assert any("closed-loop network" in e for e in errors)
