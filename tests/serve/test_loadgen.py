"""Load generator: seeded determinism and closed-loop accounting."""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.network import mlp
from repro.rng import derive, make_rng
from repro.serve import (
    DecisionServer,
    LoadGenConfig,
    MicroBatcher,
    PolicyStore,
    VirtualClock,
    run_closed_loop,
    run_server_load,
)
from repro.serve.loadgen import make_clients


def store_of(policies=2):
    # paper geometry: 3*5 observation features, 16 channels x 10 powers
    return PolicyStore([mlp(15, (24, 24), 160, seed=i) for i in range(policies)])


def fresh_batcher(store, **kw):
    defaults = dict(max_batch=16, deadline_ms=2.0, queue_limit=64, admission="queue")
    defaults.update(kw)
    return MicroBatcher(store, clock=VirtualClock(), **defaults)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        store = store_of()
        config = LoadGenConfig(networks=24, requests_per_network=6, seed=11)
        first = run_closed_loop(fresh_batcher(store), config)
        second = run_closed_loop(fresh_batcher(store), config)
        assert first.trace == second.trace
        assert first.duration_s == second.duration_s
        assert first.decisions == second.decisions

    def test_different_seed_different_trace(self):
        store = store_of()
        first = run_closed_loop(
            fresh_batcher(store),
            LoadGenConfig(networks=24, requests_per_network=6, seed=11),
        )
        second = run_closed_loop(
            fresh_batcher(store),
            LoadGenConfig(networks=24, requests_per_network=6, seed=12),
        )
        assert first.trace != second.trace

    def test_network_streams_stable_under_fleet_growth(self):
        # network i draws from derive(seed, "loadgen-net[i]"): its first
        # arrival instant must not depend on how many peers exist.
        store = store_of()
        small = run_closed_loop(
            fresh_batcher(store),
            LoadGenConfig(networks=4, requests_per_network=1, seed=3),
        )
        big = run_closed_loop(
            fresh_batcher(store),
            LoadGenConfig(networks=8, requests_per_network=1, seed=3),
        )
        first_small = {n: t for t, n, _ in reversed(sorted(small.trace))}
        first_big = {n: t for t, n, _ in reversed(sorted(big.trace))}
        # shared networks 0..3 decided within the same virtual run; their
        # arrival draws are identical, so decisions happen in the same
        # batch windows
        assert set(first_small) <= set(first_big)


class TestAccounting:
    def test_every_request_answered(self):
        store = store_of(3)
        config = LoadGenConfig(networks=16, requests_per_network=5, seed=0)
        report = run_closed_loop(fresh_batcher(store), config)
        assert report.decisions + report.shed == 16 * 5
        assert report.shed == 0
        assert len(report.trace) == 16 * 5
        assert report.duration_s > 0

    def test_shed_admission_counts_sheds(self):
        store = store_of()
        batcher = fresh_batcher(
            store,
            max_batch=64,
            deadline_ms=50.0,
            queue_limit=4,
            admission="shed",
        )
        config = LoadGenConfig(
            networks=32,
            requests_per_network=4,
            mean_think_time_s=0.0001,
            seed=1,
        )
        report = run_closed_loop(batcher, config)
        assert report.shed > 0
        assert report.decisions + report.shed == 32 * 4
        assert any(action == -1 for _, _, action in report.trace)

    def test_degrade_admission_counts_degraded(self):
        store = store_of()
        batcher = fresh_batcher(
            store,
            max_batch=64,
            deadline_ms=50.0,
            queue_limit=4,
            admission="degrade",
        )
        report = run_closed_loop(
            batcher,
            LoadGenConfig(
                networks=32,
                requests_per_network=4,
                mean_think_time_s=0.0001,
                seed=1,
            ),
        )
        assert report.degraded > 0
        assert report.decisions == 32 * 4
        assert report.shed == 0

    def test_rejects_unfactorable_store(self):
        store = PolicyStore([mlp(15, (8,), 7, seed=0)])  # 7 actions
        with pytest.raises(ConfigurationError, match="power levels"):
            run_closed_loop(fresh_batcher(store), LoadGenConfig(networks=2))


class TestServerLoad:
    def test_async_run_answers_everything(self):
        store = store_of()
        config = LoadGenConfig(
            networks=12,
            requests_per_network=4,
            mean_think_time_s=0.0,
            seed=2,
        )

        async def main():
            server = DecisionServer(
                store, max_batch=16, deadline_ms=1.0, queue_limit=64
            )
            report = await run_server_load(server, config)
            await server.stop()
            return report

        report = asyncio.run(main())
        assert report.decisions == 12 * 4
        assert report.shed == 0
        # actions per network are pure functions of the seeded history, so
        # the async run decides exactly what the virtual-time run decides
        sync = run_closed_loop(fresh_batcher(store), config)
        for network in range(config.networks):
            async_actions = [a for _, n, a in report.trace if n == network]
            sync_actions = [a for _, n, a in sync.trace if n == network]
            assert async_actions == sync_actions


class TestConfigValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(networks=0)
        with pytest.raises(ConfigurationError):
            LoadGenConfig(requests_per_network=0)
        with pytest.raises(ConfigurationError):
            LoadGenConfig(mean_think_time_s=-1.0)
        with pytest.raises(ConfigurationError):
            LoadGenConfig(num_power_levels=0)


def test_store_observation_multiple_of_three_enforced():
    store = PolicyStore([mlp(16, (8,), 160, seed=0)])
    with pytest.raises(ConfigurationError, match="history"):
        run_closed_loop(fresh_batcher(store), LoadGenConfig(networks=2))


def test_trace_rows_are_time_ordered():
    store = store_of()
    report = run_closed_loop(
        fresh_batcher(store),
        LoadGenConfig(networks=8, requests_per_network=3, seed=5),
    )
    times = [t for t, _, _ in report.trace]
    assert times == sorted(times)
    assert np.all(np.array(times) >= 0)


class _ListHistoryClient:
    """The list-of-(outcome, channel, power)-tuples client encoding, kept as
    the reference for the flat-array history."""

    def __init__(self, seed, history_length, channels, powers):
        self.rng = make_rng(seed)
        self.channels, self.powers = channels, powers
        channel = int(self.rng.integers(channels))
        self.history = [(1.0, channel / max(channels - 1, 1), 0.0)] * history_length

    def observation(self):
        return np.array(self.history, dtype=np.float64).reshape(-1)

    def absorb(self, action):
        channel, power = divmod(int(action), self.powers)
        draw = self.rng.random()
        outcome = 1.0 if draw < 0.6 else (0.5 if draw < 0.8 else 0.0)
        self.history.pop(0)
        self.history.append(
            (
                outcome,
                channel / max(self.channels - 1, 1),
                power / max(self.powers - 1, 1),
            )
        )


@pytest.mark.parametrize("network", [0, 5])
def test_client_observation_matches_list_encoding_bit_for_bit(network):
    store = store_of()
    config = LoadGenConfig(networks=6, seed=9)
    client = make_clients(store, config)[network]
    reference = _ListHistoryClient(
        derive(config.seed, f"loadgen-net[{network}]"),
        history_length=store.observation_size // 3,
        channels=store.num_actions // config.num_power_levels,
        powers=config.num_power_levels,
    )
    actions = np.random.default_rng(network).integers(store.num_actions, size=40)
    for absorbed in range(41):
        got, want = client.observation(), reference.observation()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), absorbed
        got[:] = -1.0  # a fresh copy: the next observation is untouched
        again = client.observation()
        assert np.array_equal(again.view(np.uint64), want.view(np.uint64))
        if absorbed < len(actions):
            client.absorb(actions[absorbed])
            reference.absorb(actions[absorbed])
