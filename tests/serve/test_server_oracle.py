"""Differential oracle: the asyncio server against the sync batcher's steps.

Hypothesis draws a server configuration (``max_batch`` 1, 3 or 64, a
short or long deadline, every admission mode, a short queue) and bursts
of requests with a few bad ones mixed in: policy 99, an observation one
feature short, a policy that is not an int. Each burst is sent to a
:class:`DecisionServer` one request at a time, as concurrent tasks, and
answered in full before the next; the same sequence drives a
:class:`MicroBatcher` on a :class:`VirtualClock`, flushing at each
deadline the way the server's timer does. Each caller must get the
batcher's outcome for its request (action, batch size, shed, degraded,
or the error type), every answer must be ``decide_serial``'s, an error
must reach only the bad request or the batch holding it, and the
``serve.*`` counters must move by the same amounts.

The server runs on an event loop whose clock jumps to the next timer
whenever the loop would block, so deadlines fire only once every task
waits and each run is deterministic. The test is wrapped in
``wait_for``: a lost future fails it instead of hanging.
"""

import asyncio
import selectors

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.nn.network import mlp
from repro.obs.metrics import METRICS
from repro.serve import (
    ADMISSION_MODES,
    DecisionServer,
    MicroBatcher,
    PolicyStore,
    ShedDecision,
    VirtualClock,
)

COUNTERS = ("serve.decisions", "serve.batches", "serve.shed", "serve.degraded")
STORE = PolicyStore([mlp(6, (8,), 5, seed=i) for i in range(3)])
GOOD = "good"
KINDS = (GOOD, GOOD, GOOD, GOOD, "policy-99", "short-obs", "str-policy")


class _VirtualSelector:
    """A selector that never blocks: a wait moves the loop's clock instead."""

    def __init__(self, loop_clock):
        self._selector = selectors.DefaultSelector()
        self._clock = loop_clock

    def select(self, timeout=None):
        if timeout:
            self._clock[0] += timeout
        return self._selector.select(0)

    def __getattr__(self, name):
        return getattr(self._selector, name)


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    def __init__(self):
        self._now = [0.0]
        super().__init__(_VirtualSelector(self._now))

    def time(self):
        return self._now[0]


def run_virtual(coro, timeout_s=600.0):
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(asyncio.wait_for(coro, timeout_s))
    finally:
        loop.close()


def make_request(index, kind):
    observation = np.random.default_rng(index).random(STORE.observation_size)
    policy = index % STORE.num_policies
    if kind == "policy-99":
        policy = 99
    elif kind == "short-obs":
        observation = observation[:-1]
    elif kind == "str-policy":
        policy = "x"
    return index, policy, observation


def outcome(out):
    """What a caller got, comparable across front-ends (not latencies)."""
    if isinstance(out, Exception):
        return ("error", type(out).__name__)
    if isinstance(out, ShedDecision):
        return ("shed", out.network_id)
    return ("decision", out.network_id, out.action, out.batch_size, out.degraded)


def counters():
    return {name: METRICS.counter(name).value for name in COUNTERS}


def run_server(settings, bursts):
    async def main():
        server = DecisionServer(STORE, **settings)
        results = []
        for burst in bursts:
            tasks = []
            for request in burst:
                tasks.append(asyncio.ensure_future(server.decide(*request)))
                await asyncio.sleep(0)  # reach the server in sequence order
            results += await asyncio.gather(*tasks, return_exceptions=True)
        await server.stop()
        return results

    return [outcome(result) for result in run_virtual(main())]


def run_batcher(settings, bursts):
    """The server's steps on the sync batcher; returns outcomes and failed batches.

    ``queue`` admission flushes to make room where the server waits for
    the deadline flush; with every burst answered before the next, both
    cut the burst into the same FIFO batches.
    """
    clock = VirtualClock()
    batcher = MicroBatcher(STORE, clock=clock, **settings)
    results, failed_batches = {}, []

    def step(call, *args, new=None):
        queued = [entry[0] for entry in batcher._pending]
        try:
            outs = call(*args)
        except Exception as exc:
            left = {entry[0] for entry in batcher._pending}
            lost = [i for i in queued + [new] if i is not None and i not in left]
            failed_batches.append(lost)
            for index in lost:
                results[index] = outcome(exc)
            return
        for out in outs:
            results[out.network_id] = outcome(out)

    for burst in bursts:
        for request in burst:
            index = request[0]
            try:
                refused = batcher.refuse(*request)
            except Exception as exc:
                results[index] = outcome(exc)
                continue
            if refused is not None:
                results[index] = outcome(refused)
                continue
            if batcher.full:
                step(batcher.flush)
            step(batcher.enqueue, *request, new=index)
        while batcher.pending_depth:
            clock.set(max(batcher.next_deadline(), clock.now()))
            step(batcher.flush)
    order = [request[0] for burst in bursts for request in burst]
    return [results[index] for index in order], failed_batches


configs = st.fixed_dictionaries(
    {
        "max_batch": st.sampled_from([1, 3, 64]),
        "deadline_ms": st.sampled_from([1.0, 1000.0]),
        "queue_limit": st.integers(1, 5),
        "admission": st.sampled_from(ADMISSION_MODES),
    }
)
burst_kinds = st.lists(
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=8), min_size=1, max_size=4
)

#: Timer armed, batch not filled: the second to fifth requests enqueue
#: inline, and the third (not an int) fails there alone.
INLINE = dict(max_batch=64, deadline_ms=1.0, queue_limit=5, admission="queue")


@seed(20240611)
@settings(max_examples=60, deadline=None)
@example(INLINE, [[GOOD, GOOD, "str-policy", GOOD, GOOD], [GOOD]])
@example(dict(INLINE, queue_limit=2), [[GOOD] * 6, [GOOD, "short-obs", GOOD]])
@example(dict(INLINE, max_batch=3, admission="shed"), [[GOOD] * 5, ["policy-99"]])
@example(dict(INLINE, max_batch=3, admission="degrade"), [[GOOD, "str-policy"] * 3])
@given(configs, burst_kinds)
def test_server_answers_like_the_batcher(config, kinds):
    bursts, bad, index = [], set(), 0
    for burst in kinds:
        bursts.append([make_request(index + k, kind) for k, kind in enumerate(burst)])
        bad |= {index + k for k, kind in enumerate(burst) if kind != GOOD}
        index += len(burst)

    before = counters()
    served = run_server(config, bursts)
    middle = counters()
    expected, failed_batches = run_batcher(config, bursts)
    after = counters()

    assert served == expected
    assert {n: middle[n] - before[n] for n in COUNTERS} == {
        n: after[n] - middle[n] for n in COUNTERS
    }
    requests = [request for burst in bursts for request in burst]
    for (index, policy, observation), got in zip(requests, served):
        if got[0] == "decision" and index not in bad:
            assert got[2] == STORE.decide_serial(policy, observation)
        if got[0] == "error" and index not in bad:
            assert any(index in lost and bad & set(lost) for lost in failed_batches)
    for lost in failed_batches:
        assert bad & set(lost)


def test_inline_enqueues_skip_the_step_runner(monkeypatch):
    # The oracle's first example takes the inline path: one _run call
    # queues the first request and arms the timer, the next four
    # enqueues (the third fails) bypass _run.
    steps = []
    run = DecisionServer._run
    monkeypatch.setattr(
        DecisionServer,
        "_run",
        lambda self, step, *args: steps.append(step.__name__) or run(self, step, *args),
    )
    kinds = [GOOD, GOOD, "str-policy", GOOD, GOOD]
    burst = [make_request(k, kind) for k, kind in enumerate(kinds)]
    served = run_server(INLINE, [burst])
    assert [got[0] for got in served] == ["decision"] * 2 + ["error"] + ["decision"] * 2
    assert {got[3] for got in served if got[0] == "decision"} == {4}
    assert steps.count("enqueue") == 1
