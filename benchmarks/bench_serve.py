"""Serving-layer benchmark: batched decisions/sec vs per-request inference.

Three measurements land in ``benchmarks/results/BENCH_serve.json``:

* ``serve.inference.batched`` vs ``serve.inference.serial`` — the
  headline speedup gate: one fleet of ``REPRO_SERVE_BENCH_NETWORKS``
  concurrent networks issuing a realistic closed-loop request stream,
  answered by the stacked :meth:`PolicyStore.decide_batch` path versus
  one :meth:`PolicyStore.decide_serial` call per request. Actions must
  be bit-identical; the batched path must be >= 5x decisions/sec.
* ``serve.loop.batched`` vs ``serve.loop.per_request`` — the end-to-end
  service ablation: the same seeded closed loop driven through a
  :class:`MicroBatcher` on a virtual clock, with micro-batching on
  (default batch) versus disabled (``max_batch=1``). This includes all
  per-request bookkeeping (queueing, admission, metrics), so the ratio
  is smaller than the pure-inference gate; p50/p99 latencies from the
  batched run are snapshotted into the artifact.
* ``serve.server.async`` — wall-clock throughput of the asyncio
  :class:`DecisionServer` front-end under one client task per network.

Budgets shrink for CI via ``REPRO_SERVE_BENCH_NETWORKS``,
``REPRO_SERVE_BENCH_REQUESTS`` and ``REPRO_SERVE_BENCH_POLICIES``. The
committed baseline in ``benchmarks/baselines/`` gates regressions via
``repro bench diff``.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
from conftest import RESULTS_DIR, budget

from repro.exec import timing
from repro.nn.network import mlp
from repro.obs.metrics import METRICS
from repro.serve import (
    DecisionServer,
    LoadGenConfig,
    MicroBatcher,
    PolicyStore,
    VirtualClock,
    run_closed_loop,
    run_server_load,
)
from repro.rng import derive
from repro.serve.loadgen import make_clients

#: Acceptance fleet: 256 concurrent networks sharing 4 trained policies.
NETWORKS = budget("REPRO_SERVE_BENCH_NETWORKS", 256)
REQUESTS = budget("REPRO_SERVE_BENCH_REQUESTS", 8)
POLICIES = budget("REPRO_SERVE_BENCH_POLICIES", 4)
ROUNDS = budget("REPRO_SERVE_BENCH_ROUNDS", 3)
SEED = 0

#: Filled as the tests run; snapshotted into the artifact's ``extra``.
SUMMARY: dict[str, object] = {}


def _store() -> PolicyStore:
    # Paper geometry: 3-slot history over I=5 intervals (15 features),
    # 16 channels x 10 power levels (160 actions), two hidden layers.
    return PolicyStore(
        [
            mlp(15, (48, 48), 160, seed=derive(SEED, f"serve-bench[{i}]"))
            for i in range(POLICIES)
        ]
    )


def _config() -> LoadGenConfig:
    return LoadGenConfig(
        networks=NETWORKS, requests_per_network=REQUESTS, seed=SEED
    )


def _serial_replay(
    store: PolicyStore, config: LoadGenConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay every client serially: the reference request/action stream.

    Think-time draws happen before each request exactly as in
    :func:`run_closed_loop`, so each client's rng stream — and therefore
    its observations and actions — matches the batched runs bit for bit.
    """
    clients = make_clients(store, config)
    policies, observations, actions = [], [], []
    for _ in range(config.requests_per_network):
        for client in clients:
            client.think_time(config.mean_think_time_s)
            obs = client.observation()
            action = store.decide_serial(client.policy, obs)
            client.absorb(action)
            policies.append(client.policy)
            observations.append(obs)
            actions.append(action)
    return (
        np.array(policies, dtype=np.intp),
        np.stack(observations),
        np.array(actions, dtype=np.int64),
    )


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _write_artifact() -> None:
    timing.write_bench(
        "serve",
        directory=RESULTS_DIR,
        extra={
            "networks": NETWORKS,
            "requests_per_network": REQUESTS,
            "policies": POLICIES,
            **{k: v for k, v in SUMMARY.items()},
        },
    )


def test_batched_vs_serial_inference():
    """Stacked batch inference must beat per-request predict by >= 5x."""
    store = _store()
    policies, observations, reference = _serial_replay(store, _config())
    total = policies.size

    def serial():
        for policy, obs in zip(policies, observations):
            store.decide_serial(policy, obs)

    def batched():
        # One wave per fleet: all concurrent networks' outstanding
        # requests answered by one stacked forward.
        for start in range(0, total, NETWORKS):
            store.decide_batch(
                policies[start : start + NETWORKS],
                observations[start : start + NETWORKS],
            )

    # Bit-identity before anything is timed.
    batched_actions = np.concatenate(
        [
            store.decide_batch(
                policies[start : start + NETWORKS],
                observations[start : start + NETWORKS],
            )
            for start in range(0, total, NETWORKS)
        ]
    )
    assert np.array_equal(batched_actions, reference)

    serial_s = _best_of(serial)
    batched_s = _best_of(batched)
    timing.REGISTRY.record("serve.inference.serial", serial_s, items=total)
    timing.REGISTRY.record("serve.inference.batched", batched_s, items=total)

    speedup = serial_s / batched_s
    SUMMARY["speedup_inference"] = speedup
    SUMMARY["serial_decisions_per_s"] = total / serial_s
    SUMMARY["batched_decisions_per_s"] = total / batched_s
    _write_artifact()
    assert speedup >= 5.0


def test_closed_loop_service():
    """Micro-batching on vs off through the full service stack."""
    store = _store()
    config = _config()
    total = NETWORKS * REQUESTS

    def run_service(max_batch):
        batcher = MicroBatcher(
            store,
            max_batch=max_batch,
            deadline_ms=2.0,
            queue_limit=2 * NETWORKS,
            admission="queue",
            clock=VirtualClock(),
        )
        return run_closed_loop(batcher, config)

    report = run_service(None)  # default REPRO_SERVE_BATCH
    p50_ms = METRICS.histogram("serve.latency_s").quantile(0.5) * 1e3
    p99_ms = METRICS.histogram("serve.latency_s").quantile(0.99) * 1e3
    assert report.decisions == total

    # The batched service must still answer exactly what serial replay
    # answers, per network, in order.
    _, _, reference = _serial_replay(store, config)
    by_network: dict[int, list[int]] = {}
    for _, network, action in report.trace:
        by_network.setdefault(network, []).append(action)
    for network, actions in by_network.items():
        expected = reference[network::NETWORKS].tolist()
        assert actions == expected, f"network {network} diverged"

    batched_s = _best_of(lambda: run_service(None))
    per_request_s = _best_of(lambda: run_service(1))
    timing.REGISTRY.record("serve.loop.batched", batched_s, items=total)
    timing.REGISTRY.record(
        "serve.loop.per_request", per_request_s, items=total
    )

    speedup = per_request_s / batched_s
    SUMMARY["speedup_closed_loop"] = speedup
    SUMMARY["loop_decisions_per_s"] = total / batched_s
    SUMMARY["latency_p50_ms"] = p50_ms
    SUMMARY["latency_p99_ms"] = p99_ms
    _write_artifact()
    assert speedup >= 2.0


def test_async_server_throughput():
    """The asyncio front-end must answer the whole fleet, batched."""
    store = _store()
    config = _config()

    async def main():
        server = DecisionServer(
            store, deadline_ms=2.0, queue_limit=2 * NETWORKS
        )
        report = await run_server_load(server, config)
        await server.stop()
        return report

    start = time.perf_counter()
    report = asyncio.run(main())
    elapsed = time.perf_counter() - start
    total = NETWORKS * REQUESTS
    timing.REGISTRY.record("serve.server.async", elapsed, items=total)

    assert report.decisions == total
    assert report.shed == 0
    SUMMARY["async_decisions_per_s"] = report.decisions / report.duration_s
    mean_batch = METRICS.histogram("serve.batch_size").mean
    SUMMARY["mean_batch"] = mean_batch
    # Batching must actually engage under concurrent load.
    assert mean_batch > 1.0
    _write_artifact()
