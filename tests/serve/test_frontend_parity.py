"""The sync MicroBatcher and the asyncio DecisionServer serve alike.

Both front-ends run the same serving rules, so one request sequence fed
to each must produce the same answers (action, batch size, how it was
served) and move the ``serve.*`` counters by the same amounts.
"""

import asyncio

import numpy as np
import pytest

from repro.nn.network import mlp
from repro.obs.metrics import METRICS
from repro.serve import (
    Decision,
    DecisionServer,
    MicroBatcher,
    PolicyStore,
    ShedDecision,
    VirtualClock,
)

COUNTERS = ("serve.decisions", "serve.batches", "serve.shed", "serve.degraded")

#: queue_limit < max_batch: the fourth and fifth requests of each phase
#: find the queue full, so admission decides; a deadline flush ends phase 1
#: and the drain ends phase 2.
SETTINGS = dict(max_batch=4, deadline_ms=20.0, queue_limit=3)
PHASES = (5, 2)


def store_of(policies=3):
    return PolicyStore([mlp(6, (8,), 5, seed=i) for i in range(policies)])


def requests(store, count, first=0):
    return [
        (
            first + k,
            (first + k) % store.num_policies,
            np.random.default_rng(first + k).random(store.observation_size),
        )
        for k in range(count)
    ]


def summary(out):
    kind = type(out).__name__
    if isinstance(out, ShedDecision):
        return out.network_id, kind, None, None, None
    return out.network_id, kind, out.action, out.batch_size, out.degraded


def counters():
    return {name: METRICS.counter(name).value for name in COUNTERS}


def delta(before, after):
    return {name: after[name] - before[name] for name in COUNTERS}


def run_batcher(store, admission):
    clock = VirtualClock()
    batcher = MicroBatcher(store, admission=admission, clock=clock, **SETTINGS)
    outs, first = [], 0
    for index, count in enumerate(PHASES):
        for request in requests(store, count, first):
            outs += batcher.submit(*request)
        first += count
        if index < len(PHASES) - 1:  # the deadline flush
            outs += batcher.poll(clock.advance(SETTINGS["deadline_ms"] / 1000.0))
    outs += batcher.drain()
    return outs


def run_server(store, admission):
    async def main():
        server = DecisionServer(store, admission=admission, **SETTINGS)
        tasks, first = [], 0
        for index, count in enumerate(PHASES):
            phase = []
            for request in requests(store, count, first):
                phase.append(asyncio.create_task(server.decide(*request)))
                await asyncio.sleep(0)  # reach the server in sequence order
            first += count
            if index < len(PHASES) - 1:
                await asyncio.gather(*phase)  # the deadline flush
            tasks += phase
        await server.stop()
        return await asyncio.gather(*tasks)

    return asyncio.run(main())


@pytest.mark.parametrize("admission", ["shed", "degrade"])
def test_batcher_and_server_serve_alike(admission):
    store = store_of()
    before = counters()
    sync = run_batcher(store, admission)
    middle = counters()
    served = run_server(store, admission)
    after = counters()

    assert sorted(map(summary, sync)) == sorted(map(summary, served))
    assert delta(before, middle) == delta(middle, after)
    # the sequence exercised the refusal it was built for
    refusal = "serve.shed" if admission == "shed" else "serve.degraded"
    assert delta(before, middle)[refusal] == 2
    batched = [
        out.batch_size for out in sync if isinstance(out, Decision) and not out.degraded
    ]
    assert batched == [3] * 3 + [2] * 2


def test_server_answers_in_flight_requests_of_one_network_in_order():
    # The e2e open loop's pattern: one network has several requests in
    # flight at once, each with its own observation and policy.
    store = store_of()
    rng = np.random.default_rng(5)
    asks = [
        (k % store.num_policies, rng.random(store.observation_size)) for k in range(7)
    ]

    async def main():
        server = DecisionServer(store, max_batch=4, deadline_ms=5.0, queue_limit=64)
        answers = await asyncio.gather(
            *(server.decide(0, policy, obs) for policy, obs in asks)
        )
        await server.stop()
        return answers

    answers = asyncio.run(main())
    assert all(isinstance(a, Decision) for a in answers)
    assert [a.batch_size for a in answers] == [4] * 4 + [3] * 3
    assert [a.action for a in answers] == [
        store.decide_serial(policy, obs) for policy, obs in asks
    ]
