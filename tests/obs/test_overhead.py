"""Disabled-path cost and the tracing-never-changes-results guarantee."""

import time

import numpy as np

from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig, train_dqn
from repro.obs import trace
from repro.obs.metrics import METRICS
from repro.sim.testbed import Testbed, TestbedConfig


def best_of(fn, *, repeats=5, loops=20_000) -> float:
    """Per-call seconds, best of ``repeats`` timing runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / loops


class TestDisabledOverhead:
    def test_disabled_event_is_cheap(self):
        assert not trace.enabled()
        per_call = best_of(lambda: trace.event("tick", n=1))
        # The off path is one cached-state check; anything near a
        # microsecond-scale bound means no I/O or serialisation happened.
        assert per_call < 5e-6

    def test_disabled_span_is_cheap(self):
        def spanned():
            with trace.span("s"):
                pass

        assert best_of(spanned, loops=5_000) < 20e-6

    def test_counter_inc_is_cheap(self):
        assert best_of(lambda: METRICS.inc("bench.counter")) < 5e-6


class TestBitIdentical:
    """Tracing samples no simulation RNG: results match bit for bit."""

    def test_training_identical_with_tracing(self, monkeypatch, tmp_path):
        trainer = TrainerConfig(episodes=2, steps_per_episode=20)
        baseline = train_dqn(MDPConfig(), trainer=trainer, seed=7)

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "RUN_bit.jsonl"))
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")  # sampling must not leak
        trace.reset()
        traced = train_dqn(MDPConfig(), trainer=trainer, seed=7)
        trace.finish_run()

        np.testing.assert_array_equal(
            baseline.reward_history, traced.reward_history
        )
        np.testing.assert_array_equal(baseline.loss_history, traced.loss_history)
        assert baseline.steps == traced.steps

    def test_distance_sweep_identical_with_tracing(self, monkeypatch, tmp_path):
        config = TestbedConfig(num_peripherals=2)
        distances = [5.0, 20.0]
        baseline = Testbed(config, seed=3).distance_sweep(
            distances, frames_per_node=5
        )

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "RUN_sweep.jsonl"))
        trace.reset()
        traced = Testbed(config, seed=3).distance_sweep(
            distances, frames_per_node=5
        )
        trace.finish_run()

        assert baseline == traced
