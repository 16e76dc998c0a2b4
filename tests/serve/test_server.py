"""DecisionServer: asyncio batching end-to-end, admission, graceful drain."""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.nn.network import mlp
from repro.serve import Decision, DecisionServer, PolicyStore, ShedDecision


def store_of(policies=2):
    return PolicyStore([mlp(6, (8,), 5, seed=i) for i in range(policies)])


def run(coro):
    return asyncio.run(coro)


class TestBatchingEndToEnd:
    def test_concurrent_clients_share_one_batch(self):
        store = store_of()
        observations = [
            np.random.default_rng(i).random(store.observation_size) for i in range(8)
        ]

        async def main():
            server = DecisionServer(
                store, max_batch=8, deadline_ms=1000, queue_limit=64
            )
            results = await asyncio.gather(
                *(server.decide(i, i % 2, observations[i]) for i in range(8))
            )
            await server.stop()
            return results

        results = run(main())
        assert all(isinstance(r, Decision) for r in results)
        # all eight coalesced into one stacked forward
        assert {r.batch_size for r in results} == {8}
        serial = [store.decide_serial(i % 2, observations[i]) for i in range(8)]
        assert [r.action for r in results] == serial

    def test_deadline_flushes_partial_batch(self):
        store = store_of()

        async def main():
            server = DecisionServer(store, max_batch=64, deadline_ms=5, queue_limit=64)
            result = await server.decide(0, 0, np.zeros(store.observation_size))
            await server.stop()
            return result

        result = run(main())
        assert isinstance(result, Decision)
        assert result.batch_size == 1
        # the deadline timer, not a full batch, released this decision
        assert result.latency_s >= 0.004

    def test_stop_drains_pending(self):
        store = store_of()

        async def main():
            server = DecisionServer(
                store, max_batch=64, deadline_ms=10_000, queue_limit=64
            )
            task = asyncio.create_task(
                server.decide(0, 0, np.zeros(store.observation_size))
            )
            await asyncio.sleep(0)  # let the request enqueue
            assert server.pending_depth == 1
            await server.stop()
            result = await task
            with pytest.raises(ExecutionError, match="draining"):
                await server.decide(1, 0, np.zeros(store.observation_size))
            return result

        result = run(main())
        assert isinstance(result, Decision)


class TestAdmission:
    def _fill(self, server, store, n):
        return [
            asyncio.create_task(server.decide(i, 0, np.zeros(store.observation_size)))
            for i in range(n)
        ]

    def test_shed_when_queue_full(self):
        store = store_of()

        async def main():
            server = DecisionServer(
                store,
                max_batch=64,
                deadline_ms=10_000,
                queue_limit=2,
                admission="shed",
            )
            tasks = self._fill(server, store, 2)
            await asyncio.sleep(0)
            shed = await server.decide(9, 0, np.zeros(store.observation_size))
            await server.stop()
            await asyncio.gather(*tasks)
            return shed

        shed = run(main())
        assert isinstance(shed, ShedDecision)
        assert shed.network_id == 9

    def test_degrade_when_queue_full(self):
        store = store_of()
        obs = np.random.default_rng(3).random(store.observation_size)

        async def main():
            server = DecisionServer(
                store,
                max_batch=64,
                deadline_ms=10_000,
                queue_limit=2,
                admission="degrade",
            )
            tasks = self._fill(server, store, 2)
            await asyncio.sleep(0)
            result = await server.decide(9, 1, obs)
            await server.stop()
            await asyncio.gather(*tasks)
            return result

        result = run(main())
        assert isinstance(result, Decision)
        assert result.degraded
        assert result.batch_size == 1
        assert result.action == store.decide_serial(1, obs)

    def test_queue_mode_waits_for_space(self):
        store = store_of()

        async def main():
            server = DecisionServer(
                store,
                max_batch=64,
                deadline_ms=5,
                queue_limit=2,
                admission="queue",
            )
            tasks = self._fill(server, store, 2)
            await asyncio.sleep(0)
            # queue full; this waits for the deadline flush to free space
            late = await server.decide(9, 0, np.zeros(store.observation_size))
            await server.stop()
            early = await asyncio.gather(*tasks)
            return early, late

        early, late = run(main())
        assert all(isinstance(r, Decision) for r in early)
        assert isinstance(late, Decision)


class TestFailedSteps:
    """A request the store rejects fails only its own batch's callers."""

    def run(self, main):
        # Misrouted futures leave a caller waiting forever: fail, not hang.
        return run(asyncio.wait_for(main(), timeout=10))

    def test_bad_batch_fails_its_callers_and_later_answers_route(self):
        store = store_of()
        observations = [
            np.random.default_rng(i).random(store.observation_size) for i in range(8)
        ]
        policies = [0, 1, 99, 0, 1, 0, 1, 1]

        async def main():
            server = DecisionServer(
                store, max_batch=4, deadline_ms=10_000, queue_limit=64
            )
            bad = await asyncio.gather(
                *(server.decide(i, policies[i], observations[i]) for i in range(4)),
                return_exceptions=True,
            )
            good = await asyncio.gather(
                *(server.decide(i, policies[i], observations[i]) for i in range(4, 8))
            )
            await server.stop()
            return bad, good, server.pending_depth

        bad, good, depth = self.run(main)
        assert all(isinstance(r, ConfigurationError) for r in bad)
        assert [r.network_id for r in good] == [4, 5, 6, 7]
        assert [r.action for r in good] == [
            store.decide_serial(policies[i], observations[i]) for i in range(4, 8)
        ]
        assert depth == 0

    def test_unqueued_request_fails_alone(self):
        store = store_of()
        observations = [
            np.random.default_rng(i).random(store.observation_size) for i in range(4)
        ]

        async def main():
            server = DecisionServer(
                store, max_batch=4, deadline_ms=10_000, queue_limit=64
            )
            first = [
                asyncio.create_task(server.decide(i, i % 2, observations[i]))
                for i in range(2)
            ]
            await asyncio.sleep(0)
            with pytest.raises(ValueError):
                await server.decide(9, "not-a-policy", observations[0])
            rest = [
                asyncio.create_task(server.decide(i, i % 2, observations[i]))
                for i in range(2, 4)
            ]
            results = await asyncio.gather(*first, *rest)
            await server.stop()
            return results

        results = self.run(main)
        assert [r.network_id for r in results] == [0, 1, 2, 3]
        assert {r.batch_size for r in results} == {4}
        assert [r.action for r in results] == [
            store.decide_serial(i % 2, observations[i]) for i in range(4)
        ]

    def test_failed_deadline_flush_keeps_serving(self):
        store = store_of()
        obs = np.random.default_rng(5).random(store.observation_size)

        async def main():
            server = DecisionServer(store, max_batch=64, deadline_ms=2, queue_limit=64)
            bad = await asyncio.gather(
                server.decide(0, 0, obs),
                server.decide(1, 0, obs[:-1]),
                return_exceptions=True,
            )
            late = await asyncio.gather(
                server.decide(2, 1, obs), server.decide(3, 0, obs)
            )
            await server.stop()
            return bad, late

        bad, late = self.run(main)
        assert all(isinstance(r, Exception) for r in bad)
        assert [r.network_id for r in late] == [2, 3]
        assert [r.action for r in late] == [
            store.decide_serial(1, obs),
            store.decide_serial(0, obs),
        ]
