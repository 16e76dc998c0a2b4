"""MicroBatcher: size/deadline triggers and admission control, all on a
seeded virtual clock so every flush instant is exactly reproducible."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.network import mlp
from repro.obs.metrics import METRICS
from repro.serve import (
    ADMISSION_MODES,
    Decision,
    MicroBatcher,
    PolicyStore,
    ShedDecision,
    VirtualClock,
)


def store_of(policies=2):
    return PolicyStore([mlp(6, (8,), 5, seed=i) for i in range(policies)])


def obs_for(store, seed=0):
    return np.random.default_rng(seed).random(store.observation_size)


class SteppingClock:
    """Advances ``step`` seconds on every ``now()`` call."""

    def __init__(self, step):
        self.step = step
        self.time = 0.0

    def now(self):
        self.time += self.step
        return self.time


class TestResolvers:
    def test_defaults(self, monkeypatch):
        for name in (
            "REPRO_SERVE_BATCH",
            "REPRO_SERVE_DEADLINE_MS",
            "REPRO_SERVE_QUEUE",
            "REPRO_SERVE_ADMISSION",
        ):
            monkeypatch.delenv(name, raising=False)
        batcher = MicroBatcher(store_of())
        assert batcher.max_batch == 64
        assert batcher.deadline_s == 2.0 / 1000.0
        assert batcher.queue_limit == 256
        assert batcher.admission == "queue"

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_BATCH", "16")
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "0.5")
        monkeypatch.setenv("REPRO_SERVE_ADMISSION", "shed")
        batcher = MicroBatcher(store_of())
        assert batcher.max_batch == 16
        assert batcher.deadline_s == 0.5 / 1000.0
        assert batcher.admission == "shed"
        # An explicit argument beats the environment.
        assert MicroBatcher(store_of(), max_batch=4).max_batch == 4

    def test_rejects_garbage(self, monkeypatch):
        store = store_of()
        monkeypatch.setenv("REPRO_SERVE_BATCH", "many")
        with pytest.raises(ConfigurationError, match="REPRO_SERVE_BATCH"):
            MicroBatcher(store)
        monkeypatch.delenv("REPRO_SERVE_BATCH")
        with pytest.raises(ConfigurationError, match="REPRO_SERVE_DEADLINE_MS"):
            MicroBatcher(store, deadline_ms="soon")
        with pytest.raises(ConfigurationError, match=str(ADMISSION_MODES)):
            MicroBatcher(store, admission="panic")
        with pytest.raises(ConfigurationError, match=">= 1"):
            MicroBatcher(store, max_batch=0)


class TestSizeTrigger:
    def test_batch_fills_then_flushes(self):
        store = store_of()
        clock = VirtualClock()
        batcher = MicroBatcher(
            store, max_batch=4, deadline_ms=10, queue_limit=64, clock=clock
        )
        outs = []
        for i in range(3):
            outs += batcher.submit(i, i % 2, obs_for(store, i))
        assert outs == []
        assert batcher.pending_depth == 3
        outs = batcher.submit(3, 1, obs_for(store, 3))
        assert len(outs) == 4
        assert batcher.pending_depth == 0
        assert all(isinstance(o, Decision) for o in outs)
        assert all(o.batch_size == 4 for o in outs)
        assert [o.network_id for o in outs] == [0, 1, 2, 3]

    def test_flushed_actions_match_serial(self):
        store = store_of(3)
        batcher = MicroBatcher(store, max_batch=6, deadline_ms=10, clock=VirtualClock())
        observations = [obs_for(store, i) for i in range(6)]
        outs = []
        for i, obs in enumerate(observations):
            outs += batcher.submit(i, i % 3, obs)
        serial = [store.decide_serial(i % 3, obs) for i, obs in enumerate(observations)]
        assert [o.action for o in outs] == serial


class TestDeadlineTrigger:
    def test_partial_batch_flushes_at_deadline(self):
        store = store_of()
        clock = VirtualClock()
        batcher = MicroBatcher(store, max_batch=64, deadline_ms=2.0, clock=clock)
        batcher.submit(0, 0, obs_for(store, 0))
        clock.advance(0.001)
        batcher.submit(1, 1, obs_for(store, 1))
        assert batcher.next_deadline() == pytest.approx(0.002)
        # before the oldest request's deadline: nothing happens
        assert batcher.poll(clock.advance(0.0005)) == []
        outs = batcher.poll(clock.advance(0.0006))
        assert len(outs) == 2
        assert outs[0].batch_size == 2
        # latency measured from each request's own submit time
        assert outs[0].latency_s == pytest.approx(0.0021)
        assert outs[1].latency_s == pytest.approx(0.0011)
        assert batcher.next_deadline() is None

    def test_drain_flushes_leftovers(self):
        store = store_of()
        batcher = MicroBatcher(
            store, max_batch=64, deadline_ms=50, clock=VirtualClock()
        )
        for i in range(5):
            batcher.submit(i, 0, obs_for(store, i))
        outs = batcher.drain()
        assert len(outs) == 5
        assert batcher.pending_depth == 0
        assert batcher.drain() == []


class TestAdmission:
    def _full_batcher(self, admission):
        store = store_of()
        clock = VirtualClock()
        batcher = MicroBatcher(
            store,
            max_batch=64,
            deadline_ms=50,
            queue_limit=2,
            admission=admission,
            clock=clock,
        )
        batcher.submit(0, 0, obs_for(store, 0))
        batcher.submit(1, 1, obs_for(store, 1))
        return store, batcher

    def test_shed_returns_typed_sentinel(self):
        store, batcher = self._full_batcher("shed")
        outs = batcher.submit(2, 0, obs_for(store, 2))
        assert len(outs) == 1
        assert isinstance(outs[0], ShedDecision)
        assert outs[0].network_id == 2
        assert outs[0].queue_depth == 2
        assert outs[0].reason == "queue-full"
        # the queued requests were not disturbed
        assert batcher.pending_depth == 2

    def test_degrade_answers_serially(self):
        store, batcher = self._full_batcher("degrade")
        obs = obs_for(store, 2)
        outs = batcher.submit(2, 1, obs)
        assert len(outs) == 1
        assert isinstance(outs[0], Decision)
        assert outs[0].degraded
        assert outs[0].batch_size == 1
        assert outs[0].action == store.decide_serial(1, obs)
        assert batcher.pending_depth == 2

    def test_degraded_latency_is_serial_forward_time(self):
        # A clock that moves a fixed step per reading: the degraded answer
        # reports the time its serial forward took on that clock.
        step = 0.25e-3
        store = store_of()
        clock = SteppingClock(step)
        batcher = MicroBatcher(
            store,
            max_batch=64,
            deadline_ms=50,
            queue_limit=1,
            admission="degrade",
            clock=clock,
        )
        batcher.submit(0, 0, obs_for(store, 0))
        (out,) = batcher.submit(1, 1, obs_for(store, 1))
        assert out.degraded
        assert out.latency_s == pytest.approx(step)

    def test_queue_mode_flushes_to_make_room(self):
        store, batcher = self._full_batcher("queue")
        outs = batcher.submit(2, 0, obs_for(store, 2))
        # the two queued requests were served; the new one is pending
        assert [o.network_id for o in outs] == [0, 1]
        assert batcher.pending_depth == 1

    def test_queue_mode_malformed_request_leaves_queue_untouched(self):
        # The request is converted before the full queue is flushed: a
        # bad policy raises with both queued requests still pending, not
        # after their decisions were served and dropped.
        store, batcher = self._full_batcher("queue")
        counter = METRICS.counter("serve.decisions")
        before = counter.value
        with pytest.raises(ValueError):
            batcher.submit(2, "x", obs_for(store, 2))
        assert counter.value == before
        assert batcher.pending_depth == 2
        assert [o.network_id for o in batcher.drain()] == [0, 1]

    def test_admission_deterministic_under_virtual_clock(self):
        def run():
            store = store_of()
            clock = VirtualClock()
            batcher = MicroBatcher(
                store,
                max_batch=8,
                deadline_ms=1.0,
                queue_limit=4,
                admission="shed",
                clock=clock,
            )
            rng = np.random.default_rng(42)
            log = []
            for i in range(40):
                clock.advance(float(rng.exponential(0.0002)))
                log += [
                    (type(o).__name__, o.network_id, clock.now())
                    for o in batcher.poll()
                ]
                log += [
                    (type(o).__name__, o.network_id, clock.now())
                    for o in batcher.submit(
                        i, i % 2, rng.random(store.observation_size)
                    )
                ]
            log += [
                (type(o).__name__, o.network_id, clock.now()) for o in batcher.drain()
            ]
            return log

        assert run() == run()
