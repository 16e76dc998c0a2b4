"""Disabled-path cost and the tracing-never-changes-results guarantee."""

import time

import numpy as np

from repro.analysis import figures as F
from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig, train_dqn
from repro.obs import trace
from repro.obs.metrics import METRICS


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

    def test_parameter_sweeps_identical_with_tracing(self, monkeypatch, tmp_path):
        axes = ((10.0, 60.0), (3,), (50.0,), (6,))
        F.parameter_sweeps.cache_clear()
        baseline = F.parameter_sweeps("max", 200, 3, *axes)

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "RUN_sweep.jsonl"))
        trace.reset()
        F.parameter_sweeps.cache_clear()
        traced = F.parameter_sweeps("max", 200, 3, *axes)
        trace.finish_run()
        F.parameter_sweeps.cache_clear()

        assert baseline == traced
