"""Golden pin of the ``RUN_*.jsonl`` / ``TELEM_*.jsonl`` artifact formats.

Two pool runs record with ``REPRO_TRACE`` and ``REPRO_TELEM`` both on and
``workers=2``, so every record crosses the worker envelope:

* ``field`` — a 9-network :class:`FieldGrid` in 3 shards;
* ``dqn`` — a 3-seed :func:`train_dqn_multi_seed` with ``env_batch=1``,
  one lock-step run of one seed per pool task.

Each file is normalised (wall-clock times, trace id, git SHA, argv, pid
and event ``seq`` masked; span ids renumbered by first appearance) and
reduced to what a refactor of the sink must keep: the sequence of record
types, the key set of each record type, the span parent tree and a
SHA-256 of the merged telemetry series. ``data/obs_golden.json`` is the
cross-commit oracle.

Regenerate the fixture only for an intended format change::

    PYTHONPATH=src python tests/obs/test_obs_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig, train_dqn_multi_seed
from repro.jamming.jammer import ReactiveJammerConfig
from repro.obs import telemetry, trace
from repro.obs.metrics import METRICS
from repro.sim.field import FieldConfig
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import FieldGrid, GridConfig

FIXTURE = Path(__file__).with_name("data") / "obs_golden.json"

CASES = ("field", "dqn")

#: Record fields whose values differ run to run (or machine to machine).
MASKED = ("t0", "dur", "t", "time", "trace", "git_sha", "argv", "pid", "seq")


def run_field() -> None:
    defaults = paper_defaults()
    jammer = field_jammer_config(
        defaults,
        adversary="reactive",
        reactive=ReactiveJammerConfig(
            duty_cycle=0.7, response_latency_s=0.2, decoy_discrimination=0.25
        ),
    )
    config = GridConfig(
        field=FieldConfig(mdp=defaults.mdp, jammer=jammer),
        num_networks=9,
        width_m=30.0,
        height_m=30.0,
        scheme="deception",
    )
    FieldGrid(config, seed=5, shards=3, workers=2).run(40)


def run_dqn() -> None:
    train_dqn_multi_seed(
        MDPConfig(),
        seeds=(0, 1, 2),
        trainer=TrainerConfig(episodes=2, steps_per_episode=10),
        workers=2,
        env_batch=1,
    )


RUNS = {"field": run_field, "dqn": run_dqn}


def record_pair(case: str, directory: Path) -> tuple[Path, Path]:
    """Run ``case`` with tracing and telemetry on; return both files."""
    run_path = directory / f"RUN_{case}.jsonl"
    telem_path = directory / f"TELEM_{case}.jsonl"
    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_TRACE", "REPRO_TELEM", "REPRO_TELEM_INTERVAL")
    }
    os.environ.update(
        REPRO_TRACE=str(run_path),
        REPRO_TELEM=str(telem_path),
        REPRO_TELEM_INTERVAL="10",
    )
    trace.reset()
    telemetry.reset()
    METRICS.reset()
    try:
        RUNS[case]()
        telemetry.finish_run()
        trace.finish_run()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        trace.reset()
        telemetry.reset()
        METRICS.reset()
    return run_path, telem_path


def normalise(path: Path) -> list[dict]:
    """Records with run-varying fields masked and span ids renumbered."""
    ids: dict[str, int] = {}

    def renumber(sid):
        return None if sid is None else ids.setdefault(sid, len(ids))

    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        for key in MASKED:
            if key in record:
                record[key] = "*"
        if record["type"] == "span":
            record["id"] = renumber(record["id"])
            record["parent"] = renumber(record["parent"])
        elif record["type"] == "event":
            record["span"] = renumber(record["span"])
        records.append(record)
    return records


def pin_file(records: list[dict]) -> dict:
    keys: dict[str, list[list[str]]] = {}
    for record in records:
        shape = sorted(record)
        seen = keys.setdefault(record["type"], [])
        if shape not in seen:
            seen.append(shape)
    return {
        "types": [record["type"] for record in records],
        "keys": {kind: sorted(shapes) for kind, shapes in sorted(keys.items())},
    }


def compute(case: str, directory: Path) -> dict:
    run_path, telem_path = record_pair(case, directory)
    run = normalise(run_path)
    spans = [
        [r["id"], r["parent"], r["name"]] for r in run if r["type"] == "span"
    ]
    merged = telemetry.merge_frames(telemetry.load_telemetry(telem_path))
    return {
        "run": pin_file(run),
        "spans": spans,
        "telem": pin_file(normalise(telem_path)),
        "merged_sha256": hashlib.sha256(
            json.dumps(merged, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_golden(case, golden, tmp_path):
    assert compute(case, tmp_path) == golden[case]


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    FIXTURE.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        pins = {case: compute(case, Path(tmp)) for case in CASES}
    FIXTURE.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {len(CASES)} pins to {FIXTURE}")
