"""Telemetry overhead benchmark: the slot loop with ``REPRO_TELEM`` on.

Runs the same 256-network aggregate-sampling :class:`repro.sim.shard.FieldGrid`
with telemetry off and on — ``ROUNDS`` interleaved off/on pairs so host
drift hits both sides equally, best wall-clock each — records both as
``telemetry.off`` / ``telemetry.on`` stages in
``benchmarks/results/BENCH_telemetry.json``, and asserts two things:

* **overhead**: the telemetry-on loop may cost at most
  ``REPRO_TELEM_BENCH_THRESHOLD`` (default 1.05 = +5%) of the off loop;
* **bit-identity**: engine results are exactly equal with telemetry on
  or off — recording frames must never touch a simulation rng.

Budgets shrink for CI via ``REPRO_TELEM_BENCH_NETWORKS`` /
``REPRO_TELEM_BENCH_SLOTS`` / ``REPRO_TELEM_BENCH_ROUNDS``. The
committed baseline in ``benchmarks/baselines/`` gates wall-clock
regressions via ``repro bench diff``.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from conftest import RESULTS_DIR, budget

from repro.exec import timing
from repro.obs import telemetry as obs_telemetry
from repro.sim.field import FieldConfig
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import FieldGrid, GridConfig

NETWORKS = budget("REPRO_TELEM_BENCH_NETWORKS", 256)
SLOTS = budget("REPRO_TELEM_BENCH_SLOTS", 200)
ROUNDS = budget("REPRO_TELEM_BENCH_ROUNDS", 5)
THRESHOLD = budget(
    "REPRO_TELEM_BENCH_THRESHOLD", 1.05, kind="float", minimum=None, positive=True
)


def _grid() -> FieldGrid:
    defaults = paper_defaults()
    config = FieldConfig(
        mdp=defaults.mdp,
        jammer=field_jammer_config(defaults),
        sampling="aggregate",
    )
    return FieldGrid(GridConfig(field=config, num_networks=NETWORKS), seed=0)


def _one_round(telem_path: Path | None) -> tuple[float, float]:
    """One fresh-grid run; returns (seconds, goodput)."""
    obs_telemetry.reset()
    if telem_path is not None:
        os.environ["REPRO_TELEM"] = str(telem_path)
    else:
        os.environ.pop("REPRO_TELEM", None)
    grid = _grid()
    start = time.perf_counter()
    result = grid.run(SLOTS)
    elapsed = time.perf_counter() - start
    if telem_path is not None:
        obs_telemetry.finish_run()
    return elapsed, result.mean_goodput


def test_telemetry_overhead():
    saved = os.environ.get("REPRO_TELEM")
    tmp = Path(tempfile.mkdtemp(prefix="bench-telem-")) / "TELEM_bench.jsonl"
    try:
        _one_round(None)  # warm imports/caches outside the timed rounds
        off_s = on_s = float("inf")
        off_goodput = on_goodput = None
        for _ in range(ROUNDS):  # interleaved: drift hits both sides
            seconds, off_goodput = _one_round(None)
            off_s = min(off_s, seconds)
            seconds, on_goodput = _one_round(tmp)
            on_s = min(on_s, seconds)
    finally:
        if saved is None:
            os.environ.pop("REPRO_TELEM", None)
        else:
            os.environ["REPRO_TELEM"] = saved
        obs_telemetry.reset()

    timing.REGISTRY.record("telemetry.off", off_s, items=NETWORKS * SLOTS)
    timing.REGISTRY.record("telemetry.on", on_s, items=NETWORKS * SLOTS)
    ratio = on_s / off_s
    timing.write_bench(
        "telemetry",
        directory=RESULTS_DIR,
        extra={
            "networks": NETWORKS,
            "slots": SLOTS,
            "rounds": ROUNDS,
            "overhead_ratio": ratio,
        },
    )

    # Frames were actually written (the on-run wasn't silently disabled)...
    doc = obs_telemetry.load_telemetry(tmp)
    assert any(f.get("series") == "field" for f in doc.frames)
    # ...the engine results are bit-identical with telemetry on or off...
    assert on_goodput == off_goodput
    # ...and recording costs less than the overhead budget.
    assert ratio <= THRESHOLD, (
        f"telemetry overhead {ratio:.3f}x exceeds {THRESHOLD:.2f}x "
        f"({on_s:.3f}s on vs {off_s:.3f}s off)"
    )
