"""Byte pins of the ``field`` telemetry frames the slot engine writes.

Each case runs one field engine serially with ``REPRO_TELEM`` on and
pins the SHA-256 of the ``frame`` lines of its ``TELEM_*.jsonl``, in
file order. Unlike the merged-series hash of ``test_obs_golden.py``
this covers each shard's raw frames: window boundaries, ``slot0``,
partial windows, per-network float sums to the last bit and the duty
token gauge. A change to how windows are accumulated must keep every
pin.

Print the digests of the current code with::

    PYTHONPATH=src python tests/obs/test_field_frame_pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.jamming.jammer import ReactiveJammerConfig
from repro.obs import telemetry
from repro.sim.field import FieldConfig, FieldExperiment
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import FieldGrid, GridConfig, SchemeAdapterFactory, network_seed


def _reactive_field(**kwargs) -> FieldConfig:
    defaults = paper_defaults()
    jammer = field_jammer_config(
        defaults,
        adversary="reactive",
        reactive=ReactiveJammerConfig(
            duty_cycle=0.7, response_latency_s=0.2, decoy_discrimination=0.25
        ),
    )
    return FieldConfig(mdp=defaults.mdp, jammer=jammer, **kwargs)


def _sweep_field(**kwargs) -> FieldConfig:
    defaults = paper_defaults()
    return FieldConfig(mdp=defaults.mdp, jammer=field_jammer_config(defaults), **kwargs)


def _bench_grid(workers: int = 1) -> None:
    """The telemetry overhead bench's grid: 256 networks, 200 slots."""
    config = GridConfig(field=_sweep_field(sampling="aggregate"), num_networks=256)
    FieldGrid(config, seed=0, shards=1, workers=workers).run(200)


def _golden_grid(workers: int = 1) -> None:
    """The obs golden's grid: 3 shards, the middle one owning one network."""
    config = GridConfig(
        field=_reactive_field(),
        num_networks=9,
        width_m=30.0,
        height_m=30.0,
        scheme="deception",
    )
    FieldGrid(config, seed=5, shards=3, workers=workers).run(40)


def _hybrid_packet_grid(workers: int = 1) -> None:
    config = GridConfig(
        field=_sweep_field(sampling="packet", channel="hybrid"), num_networks=6
    )
    FieldGrid(config, seed=3, shards=2, workers=workers).run(20)


def _resumed_solo(workers: int = 1) -> None:
    """A solo experiment resumed mid-window: 25 then 17 slots."""
    del workers
    config = _reactive_field(sampling="aggregate")
    seed = network_seed(7, 0)
    adapter = SchemeAdapterFactory("optimal")(config.mdp, seed)
    experiment = FieldExperiment(config, adapter, seed=seed)
    experiment.run_experiment(25)
    experiment.run_experiment(17)


#: case -> (run, REPRO_TELEM_INTERVAL)
CASES = {
    "bench-grid": (_bench_grid, 20),
    "golden-grid": (_golden_grid, 10),
    "golden-interval-1": (_golden_grid, 1),
    "golden-interval-64": (_golden_grid, 64),  # past the 40-slot run
    "hybrid-packet": (_hybrid_packet_grid, 10),
    "solo-resumed": (_resumed_solo, 7),
}

#: SHA-256 of each case's ``frame`` lines, newline-joined in file order.
PIN_TABLE = """
bench-grid         2e2096eef4538e2db9622275678528067a66bf649ce8ca89a7861c9cb89141c7
golden-grid        a7126093944dce6a9f944e62f825af7c4d2cdbc4fac16398200fbda8180ddccd
golden-interval-1  b2828cfa65c874b2aaa3af7def1e9b8846490df7292c4356db96b6b8d2157136
golden-interval-64 2b9dd13c9494807fd2c80f45552c03049f11dffd5dc31331549b36b551c2553c
hybrid-packet      153f8e08101e72df2903493d3792b8dba3668e302a049f7079b5e7cff1ee48a2
solo-resumed       88fcb3c71a02a1e5df1f5fe6c9030fa91b5bddca752856013f79c920bca3a06c
"""
PINS = dict(line.split() for line in PIN_TABLE.strip().splitlines())


def frame_lines(case: str, directory: Path, *, workers: int = 1) -> list[str]:
    """The ``frame`` lines ``case`` writes, in file order."""
    run, interval = CASES[case]
    path = directory / f"TELEM_{case}-w{workers}.jsonl"
    saved = {k: os.environ.get(k) for k in ("REPRO_TELEM", "REPRO_TELEM_INTERVAL")}
    os.environ.update(REPRO_TELEM=str(path), REPRO_TELEM_INTERVAL=str(interval))
    telemetry.reset()
    try:
        run(workers)
        telemetry.finish_run()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        telemetry.reset()
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if json.loads(line)["type"] == "frame"]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_frame_lines_pinned(case, tmp_path):
    lines = frame_lines(case, tmp_path)
    assert lines, "no frames recorded"
    assert digest(lines) == PINS[case]


def test_window_layout(tmp_path):
    """Windows close every interval, and at the end of each advance."""
    frames = [json.loads(line) for line in frame_lines("solo-resumed", tmp_path)]
    assert [f["window"] for f in frames] == list(range(7))
    assert [f["slot0"] for f in frames] == [0, 7, 14, 21, 25, 32, 39]
    assert [f["slots"] for f in frames] == [7, 7, 7, 4, 7, 7, 3]
    assert all(len(f["tokens"]) == 1 for f in frames)
    golden = [json.loads(line) for line in frame_lines("golden-grid", tmp_path)]
    assert sorted({len(f["networks"]) for f in golden}) == [1, 4]
    assert all(f["slots"] == 10 for f in golden)


@pytest.mark.parametrize("case", ["bench-grid", "golden-grid", "hybrid-packet"])
def test_pool_writes_the_serial_frames(case, tmp_path):
    assert frame_lines(case, tmp_path, workers=2) == frame_lines(case, tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            print(name, digest(frame_lines(name, Path(tmp))))
