"""Seeded closed-loop load generator for the decision service.

Simulates N victim networks asking the service "which channel/power
next?" in a closed loop: each network submits a request, waits for its
decision, applies it to a local 3·I observation history (the exact
encoding :class:`repro.sim.field.DQNPolicyAdapter` feeds a deployed
agent), draws a synthetic slot outcome from its own seeded rng stream,
and thinks for an exponential delay before asking again. The history is
one flat float64 array, shifted by one 3-value row per decision; each
request carries a copy of it.

Two drivers share the same client model:

* :func:`run_closed_loop` — event-driven against the synchronous
  :class:`~repro.serve.batcher.MicroBatcher` and (typically) a
  :class:`~repro.serve.clock.VirtualClock`: arrivals and batch deadlines
  interleave on one virtual timeline, so the same seed reproduces the
  same request trace, the same flush instants, and the same decisions.
* :func:`run_server_load` — truly concurrent asyncio tasks against a
  :class:`~repro.serve.server.DecisionServer` for wall-clock throughput.

Every per-network stream derives from one scenario seed via
``rng.derive(seed, "loadgen-net[i]")``, so traces are stable under
fleet-size changes (network i draws identically whether the fleet has 8
networks or 8000).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import derive, make_rng
from repro.serve.batcher import Decision, MicroBatcher, ShedDecision
from repro.serve.server import DecisionServer
from repro.serve.store import PolicyStore


@dataclass(frozen=True)
class LoadGenConfig:
    """Closed-loop workload shape.

    ``num_power_levels`` factors the store's flat action space back into
    (channel, power) exactly like ``DQNPolicyAdapter.apply``.
    """

    networks: int = 8
    requests_per_network: int = 32
    mean_think_time_s: float = 0.002
    num_power_levels: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.networks < 1:
            raise ConfigurationError("loadgen needs at least one network")
        if self.requests_per_network < 1:
            raise ConfigurationError("each network needs at least one request")
        if self.mean_think_time_s < 0:
            raise ConfigurationError("mean think time must be >= 0")
        if self.num_power_levels < 1:
            raise ConfigurationError("num_power_levels must be >= 1")


@dataclass(frozen=True)
class LoadReport:
    """What a load run produced.

    ``trace`` rows are ``(time, network_id, action)`` in delivery order,
    with ``action == -1`` marking a shed request — the determinism
    contract is that one seed yields one trace, byte for byte.
    """

    decisions: int
    shed: int
    degraded: int
    duration_s: float
    trace: tuple[tuple[float, int, int], ...] = field(repr=False)


class _NetworkClient:
    """One simulated victim network: history state + seeded outcome draws."""

    def __init__(
        self,
        index: int,
        policy: int,
        seed,
        *,
        history_length: int,
        channels: int,
        powers: int,
        requests: int,
    ) -> None:
        self.index = index
        self.policy = policy
        self.rng = make_rng(seed)
        self.channels = channels
        self.powers = powers
        self.remaining = requests
        channel = int(self.rng.integers(channels))
        # Flat (outcome, channel, power) rows, oldest first, and the views
        # absorb shifts and writes through.
        history = np.tile([1.0, channel / max(channels - 1, 1), 0.0], history_length)
        self._history = history
        self._older, self._newer, self._newest = history[:-3], history[3:], history[-3:]

    def observation(self) -> np.ndarray:
        return self._history.copy()

    def absorb(self, action: int) -> None:
        """Apply a served action and draw this slot's synthetic outcome."""
        channel, power = divmod(int(action), self.powers)
        draw = self.rng.random()
        outcome = 1.0 if draw < 0.6 else (0.5 if draw < 0.8 else 0.0)
        self._older[...] = self._newer
        newest = self._newest
        newest[0] = outcome
        newest[1] = channel / max(self.channels - 1, 1)
        newest[2] = power / max(self.powers - 1, 1)

    def think_time(self, mean_s: float) -> float:
        return float(self.rng.exponential(mean_s)) if mean_s > 0 else 0.0


def make_clients(store: PolicyStore, config: LoadGenConfig) -> list[_NetworkClient]:
    """Build the client fleet for ``store`` (round-robin policy assignment)."""
    if store.observation_size % 3 != 0:
        raise ConfigurationError(
            f"store observation size {store.observation_size} is not a "
            "3-slot history multiple"
        )
    if store.num_actions % config.num_power_levels != 0:
        raise ConfigurationError(
            f"store action space {store.num_actions} does not factor into "
            f"{config.num_power_levels} power levels"
        )
    history_length = store.observation_size // 3
    channels = store.num_actions // config.num_power_levels
    return [
        _NetworkClient(
            i,
            i % store.num_policies,
            derive(config.seed, f"loadgen-net[{i}]"),
            history_length=history_length,
            channels=channels,
            powers=config.num_power_levels,
            requests=config.requests_per_network,
        )
        for i in range(config.networks)
    ]


class _Tally:
    """Outcome counts and trace rows, shared by both drivers."""

    def __init__(self, clients: list[_NetworkClient]) -> None:
        self.clients = clients
        self.counts = {"decisions": 0, "shed": 0, "degraded": 0}
        self.trace: list[tuple[float, int, int]] = []

    def record(self, now: float, out: Decision | ShedDecision) -> _NetworkClient:
        """Count one answer, feed it to its client, append its trace row."""
        client = self.clients[out.network_id]
        if isinstance(out, ShedDecision):
            self.counts["shed"] += 1
            self.trace.append((now, client.index, -1))
        else:
            self.counts["decisions"] += 1
            self.counts["degraded"] += bool(out.degraded)
            client.absorb(out.action)
            self.trace.append((now, client.index, out.action))
        return client

    def report(self, duration_s: float) -> LoadReport:
        return LoadReport(**self.counts, duration_s=duration_s, trace=tuple(self.trace))


def run_closed_loop(batcher: MicroBatcher, config: LoadGenConfig) -> LoadReport:
    """Drive the sync batcher with an event-driven closed loop.

    Arrivals and batch deadlines are merged on one timeline read from —
    and, for clocks that support ``set`` (the virtual clock), warped
    through — ``batcher.clock``. With a :class:`VirtualClock` the whole
    run is deterministic: same seed, same trace.
    """
    clients = make_clients(batcher.store, config)
    clock = batcher.clock
    warp = getattr(clock, "set", None)
    start = clock.now()

    tally = _Tally(clients)
    arrivals: list[tuple[float, int, int]] = []  # (time, seq, client index)
    seq = itertools.count()

    def schedule(client: _NetworkClient, now: float) -> None:
        think = client.think_time(config.mean_think_time_s)
        heapq.heappush(arrivals, (now + think, next(seq), client.index))

    for client in clients:
        schedule(client, start)

    def deliver(outputs: list) -> None:
        now = clock.now()
        for out in outputs:
            client = tally.record(now, out)
            if client.remaining > 0:
                schedule(client, now)

    while arrivals or batcher.pending_depth:
        next_arrival = arrivals[0][0] if arrivals else None
        deadline = batcher.next_deadline()
        if next_arrival is None or (deadline is not None and deadline <= next_arrival):
            if warp is not None:
                warp(max(deadline, clock.now()))
            deliver(batcher.poll(clock.now()))
        else:
            when, _, index = heapq.heappop(arrivals)
            if warp is not None:
                warp(max(when, clock.now()))
            client = clients[index]
            client.remaining -= 1
            deliver(batcher.submit(client.index, client.policy, client.observation()))

    return tally.report(clock.now() - start)


async def run_server_load(server: DecisionServer, config: LoadGenConfig) -> LoadReport:
    """Drive the asyncio server with one closed-loop task per network."""
    clients = make_clients(server.store, config)
    loop = asyncio.get_running_loop()
    start = loop.time()
    tally = _Tally(clients)

    async def one(client: _NetworkClient) -> None:
        while client.remaining > 0:
            client.remaining -= 1
            think = client.think_time(config.mean_think_time_s)
            if think > 0:
                await asyncio.sleep(think)
            result = await server.decide(
                client.index, client.policy, client.observation()
            )
            tally.record(loop.time() - start, result)

    await asyncio.gather(*(one(client) for client in clients))
    return tally.report(loop.time() - start)


__all__ = [
    "LoadGenConfig",
    "LoadReport",
    "make_clients",
    "run_closed_loop",
    "run_server_load",
]
