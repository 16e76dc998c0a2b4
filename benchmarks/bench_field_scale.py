"""Scaling benchmark for the sharded multi-network field grid.

Two measurements land in ``benchmarks/results/BENCH_field_scale.json``:

* ``field_scale.grid`` vs ``field_scale.serial`` — the headline speedup:
  a 256-network :class:`repro.sim.shard.FieldGrid` in aggregate sampling
  against 256 serial :class:`repro.sim.field.FieldExperiment` runs (the
  pre-PR per-packet engine) on the same derived per-network seeds,
* ``field_scale.n<N>`` — the slots/sec-vs-node-count curve, swept up to
  2560 networks (10 240 nodes at the paper's 1 hub + 3 peripherals),
* ``field_scale.interference.n<N>`` — the same curve with co-channel
  interference on, each point recording its directed interference edges
  and the co-channel edges per slot, so the interference cost reads
  against density apart from the per-run grid build.

Budgets shrink for CI via ``REPRO_FIELD_SCALE_NETWORKS`` (comma list of
curve points), ``REPRO_FIELD_SCALE_SLOTS`` (curve slots per point) and
``REPRO_FIELD_SCALE_SPEEDUP_SLOTS`` (slots per engine in the speedup
comparison). The committed baseline in ``benchmarks/baselines/`` gates
regressions via ``repro bench diff``.
"""

from __future__ import annotations

import time

from conftest import RESULTS_DIR, budget

from repro.exec import timing
from repro.exec.runner import resolve_workers
from repro.sim.field import FieldConfig, FieldExperiment
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import (
    FieldGrid,
    GridConfig,
    InterferenceModel,
    SchemeAdapterFactory,
    _InterferenceEngine,
    network_seed,
)

#: Curve points: 2560 networks x 4 nodes = 10 240 simulated radios.
CURVE_NETWORKS = budget("REPRO_FIELD_SCALE_NETWORKS", (16, 64, 256, 1024, 2560))
CURVE_SLOTS = budget("REPRO_FIELD_SCALE_SLOTS", 100)
SPEEDUP_NETWORKS = budget("REPRO_FIELD_SCALE_SPEEDUP_NETS", 256)
SPEEDUP_SLOTS = budget("REPRO_FIELD_SCALE_SPEEDUP_SLOTS", 20)

#: Filled as the tests run; snapshotted into the artifact's ``extra``.
SUMMARY: dict[str, object] = {}


def _field_config(sampling: str) -> FieldConfig:
    defaults = paper_defaults()
    return FieldConfig(
        mdp=defaults.mdp,
        jammer=field_jammer_config(defaults),
        sampling=sampling,
    )


def _write_artifact() -> None:
    timing.write_bench(
        "field_scale",
        directory=RESULTS_DIR,
        extra={
            "workers": resolve_workers(),
            "curve_slots": CURVE_SLOTS,
            "speedup_slots": SPEEDUP_SLOTS,
            **{k: v for k, v in SUMMARY.items()},
        },
    )


def test_grid_vs_serial_speedup():
    """The grid must beat N serial per-packet experiments by >= 10x."""
    n, slots, seed = SPEEDUP_NETWORKS, SPEEDUP_SLOTS, 0
    factory = SchemeAdapterFactory("optimal")
    serial_cfg = _field_config("packet")
    net_seeds = [network_seed(seed, i) for i in range(n)]
    # Warm the shared optimal-policy cache outside both timers: the serial
    # loop would otherwise pay one value iteration per network while the
    # grid pays one total.
    factory(serial_cfg.mdp, net_seeds[0])

    start = time.perf_counter()
    serial_goodputs = []
    for net in net_seeds:
        experiment = FieldExperiment(
            serial_cfg, factory(serial_cfg.mdp, net), seed=net
        )
        serial_goodputs.append(experiment.run_experiment(slots).goodput_pkts_per_slot)
    serial_s = time.perf_counter() - start
    timing.REGISTRY.record("field_scale.serial", serial_s, items=n * slots)

    grid = FieldGrid(
        GridConfig(
            field=_field_config("aggregate"),
            num_networks=n,
            adapter_factory=factory,
        ),
        seed=seed,
    )
    start = time.perf_counter()
    result = grid.run(slots)
    grid_s = time.perf_counter() - start
    timing.REGISTRY.record("field_scale.grid", grid_s, items=n * slots)

    speedup = serial_s / grid_s
    SUMMARY["speedup_grid_vs_serial"] = speedup
    SUMMARY["speedup_networks"] = n
    # Both engines simulate the same field: goodput must agree to within
    # the renewal-CLT approximation, not just "be fast".
    serial_mean = sum(serial_goodputs) / len(serial_goodputs)
    assert abs(result.mean_goodput - serial_mean) / serial_mean < 0.10
    _write_artifact()
    assert speedup >= 10.0


def test_field_scale_curve():
    """Slots/sec across network counts, up to >= 10k simulated nodes."""
    curve: list[dict[str, float]] = []
    for n in CURVE_NETWORKS:
        grid = FieldGrid(
            GridConfig(field=_field_config("aggregate"), num_networks=n),
            seed=0,
        )
        start = time.perf_counter()
        result = grid.run(CURVE_SLOTS)
        elapsed = time.perf_counter() - start
        timing.REGISTRY.record(f"field_scale.n{n}", elapsed, items=n * CURVE_SLOTS)
        curve.append(
            {
                "networks": n,
                "nodes": n * (1 + grid.config.field.num_peripherals),
                "net_slots_per_sec": n * CURVE_SLOTS / elapsed,
                "mean_goodput": result.mean_goodput,
            }
        )
    SUMMARY["curve"] = curve
    _write_artifact()
    assert all(point["net_slots_per_sec"] > 0 for point in curve)
    # Batching must amortise: the largest grid's per-slot throughput may
    # not collapse below the smallest grid's.
    assert curve[-1]["net_slots_per_sec"] >= 0.5 * curve[0]["net_slots_per_sec"]


def test_field_scale_interference_curve(monkeypatch):
    """The curve again with co-channel interference on, edges per point."""

    def grid_of(n):
        config = GridConfig(
            field=_field_config("aggregate"),
            num_networks=n,
            interference=InterferenceModel(),
        )
        return FieldGrid(config, seed=0)

    # The edge counts come from a second, untimed run of the same seed
    # (so the same channels) that keeps each slot's channels.
    seen: list[tuple[_InterferenceEngine, object]] = []
    factors = _InterferenceEngine.factors

    def recording(self, channels, powers):
        seen.append((self, channels.copy()))
        return factors(self, channels, powers)

    curve: list[dict[str, float]] = []
    for n in CURVE_NETWORKS:
        grid = grid_of(n)
        start = time.perf_counter()
        result = grid.run(CURVE_SLOTS)
        elapsed = time.perf_counter() - start
        timing.REGISTRY.record(
            f"field_scale.interference.n{n}", elapsed, items=n * CURVE_SLOTS
        )
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_InterferenceEngine, "factors", recording)
            grid_of(n).run(CURVE_SLOTS)
        # Each undirected pair (a, b) is two directed edges.
        engines = {id(engine): engine for engine, _ in seen}
        co_channel = sum(
            2 * int((channels[e.a] == channels[e.b]).sum()) for e, channels in seen
        )
        curve.append(
            {
                "networks": n,
                "edges": sum(2 * len(e.a) for e in engines.values()),
                "co_channel_edges_per_slot": co_channel / CURVE_SLOTS,
                "net_slots_per_sec": n * CURVE_SLOTS / elapsed,
                "mean_goodput": result.mean_goodput,
            }
        )
    SUMMARY["interference_curve"] = curve
    _write_artifact()
    assert all(point["net_slots_per_sec"] > 0 for point in curve)
    # Denser fields couple more networks.
    assert curve[-1]["edges"] >= curve[0]["edges"]
