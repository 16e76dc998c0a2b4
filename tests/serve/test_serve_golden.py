"""Golden pin of the virtual-clock serving path, one case per admission mode.

Each ``run_closed_loop`` case drives a :class:`MicroBatcher` on a
:class:`VirtualClock` with ``queue_limit`` below ``max_batch``, so the
queue fills and admission control decides (``queue`` flushes to make
room, ``shed`` refuses, ``degrade`` answers serially). A case records a
SHA-256 of the :class:`LoadReport` trace, the report's counts and
duration, and the ``serve.*`` counters plus histogram counts and sums
from ``METRICS``. The ``cli-*`` cases pin the same path from outside:
the SHA-256 of the JSONL trace ``repro loadgen --out`` writes.

``data/serve_golden.json`` is the cross-commit oracle. Histogram sums
are compared to 1e-12 relative; everything else must match exactly.
Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/serve/test_serve_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.nn.network import mlp
from repro.obs.metrics import METRICS
from repro.serve import (
    LoadGenConfig,
    MicroBatcher,
    PolicyStore,
    VirtualClock,
    run_closed_loop,
)

FIXTURE = Path(__file__).with_name("data") / "serve_golden.json"

LOOP_CASES = ("queue", "shed", "degrade")
CLI_CASES = ("cli-shed", "cli-degrade")
CASES = LOOP_CASES + CLI_CASES

COUNTERS = ("serve.decisions", "serve.batches", "serve.shed", "serve.degraded")
HISTOGRAMS = ("serve.batch_size", "serve.latency_s")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def serve_metrics() -> dict:
    return {
        "counters": {name: METRICS.counter(name).value for name in COUNTERS},
        "histograms": {
            name: {
                "count": METRICS.histogram(name).count,
                "sum": METRICS.histogram(name).total,
            }
            for name in HISTOGRAMS
        },
    }


def run_loop(admission: str) -> dict:
    store = PolicyStore([mlp(15, (24, 24), 160, seed=i) for i in range(2)])
    batcher = MicroBatcher(
        store,
        max_batch=8,
        deadline_ms=1.0,
        queue_limit=4,
        admission=admission,
        clock=VirtualClock(),
    )
    config = LoadGenConfig(
        networks=24, requests_per_network=4, mean_think_time_s=0.0002, seed=7
    )
    report = run_closed_loop(batcher, config)
    return {
        "trace_sha256": sha256(json.dumps(report.trace).encode("utf-8")),
        "decisions": report.decisions,
        "shed": report.shed,
        "degraded": report.degraded,
        "duration_s": report.duration_s,
        **serve_metrics(),
    }


def run_cli(admission: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.jsonl"
        code = main(
            [
                "-q",
                "loadgen",
                "--networks=32",
                "--requests=4",
                "--policies=2",
                "--batch=64",
                "--deadline-ms=2",
                "--queue=8",
                f"--admission={admission}",
                f"--out={out}",
            ]
        )
        return {"exit": code, "trace_sha256": sha256(out.read_bytes())}


def compute(case: str) -> dict:
    METRICS.reset()
    try:
        if case.startswith("cli-"):
            return run_cli(case.removeprefix("cli-"))
        return run_loop(case)
    finally:
        METRICS.reset()


def approx_sums(pins: dict) -> dict:
    """``pins`` with histogram sums wrapped for a 1e-12 relative compare."""
    if "histograms" not in pins:
        return pins
    histograms = {
        name: {**doc, "sum": pytest.approx(doc["sum"], rel=1e-12)}
        for name, doc in pins["histograms"].items()
    }
    return {**pins, "histograms": histograms}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_serving_matches_golden(case, golden):
    assert compute(case) == approx_sums(golden[case])


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_admission_actually_triggers(golden):
    assert golden["shed"]["shed"] > 0
    assert golden["degrade"]["degraded"] > 0


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    pins = {case: compute(case) for case in CASES}
    FIXTURE.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {len(CASES)} pins to {FIXTURE}")
