"""Tests for the fault-tolerance layer (retry, timeout, skip, degradation)."""

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.exec import (
    FaultCounters,
    FaultPolicy,
    InjectedFault,
    ParallelRunner,
    TaskFailure,
    maybe_inject_fault,
    run_with_faults,
)
from repro.exec.timing import TimingRegistry

from tests.exec import tasks

#: Verified against a fault-free run: rate 0.4 under seed 7 recovers every
#: task within 6 retries for the 10-spec sweeps used below.
FAULTY_RETRY = dict(
    on_error="retry", max_retries=6, backoff_s=0.0, fault_rate=0.4, fault_seed=7
)


class TestFaultPolicy:
    def test_defaults_are_passthrough(self):
        policy = FaultPolicy()
        assert policy.on_error == "raise"
        assert policy.is_passthrough
        assert policy.max_attempts == 1

    def test_raise_ignores_retry_budget(self):
        assert FaultPolicy(on_error="raise", max_retries=5).max_attempts == 1

    def test_retry_attempts(self):
        assert FaultPolicy(on_error="retry", max_retries=2).max_attempts == 3
        assert FaultPolicy(on_error="skip", max_retries=0).max_attempts == 1

    def test_injection_defeats_passthrough(self):
        assert not FaultPolicy(fault_rate=0.1).is_passthrough
        assert not FaultPolicy(timeout_s=1.0).is_passthrough
        assert not FaultPolicy(on_error="skip").is_passthrough

    def test_backoff_schedule(self):
        policy = FaultPolicy(on_error="retry", backoff_s=0.1, backoff_factor=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(on_error="explode"),
            dict(max_retries=-1),
            dict(timeout_s=0.0),
            dict(timeout_s=-2.0),
            dict(backoff_s=-0.1),
            dict(backoff_factor=0.5),
            dict(fault_rate=1.5),
            dict(fault_rate=-0.1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPolicy(**kwargs)


class TestFaultPolicyFromEnv:
    def test_unset_env_is_default(self, monkeypatch):
        for name in (
            "REPRO_ON_ERROR",
            "REPRO_MAX_RETRIES",
            "REPRO_TASK_TIMEOUT",
            "REPRO_FAULT_RATE",
            "REPRO_FAULT_SEED",
        ):
            monkeypatch.delenv(name, raising=False)
        assert FaultPolicy.from_env() == FaultPolicy()

    def test_env_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "skip")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "4")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.25")
        monkeypatch.setenv("REPRO_FAULT_SEED", "9")
        policy = FaultPolicy.from_env()
        assert policy.on_error == "skip"
        assert policy.max_retries == 4
        assert policy.timeout_s == 2.5
        assert policy.fault_rate == 0.25
        assert policy.fault_seed == 9

    def test_empty_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "   ")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "\t")
        assert FaultPolicy.from_env() == FaultPolicy()

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "skip")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "9")
        policy = FaultPolicy.from_env(on_error="retry", max_retries=1)
        assert policy.on_error == "retry"
        assert policy.max_retries == 1

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("REPRO_ON_ERROR", "explode"),
            ("REPRO_MAX_RETRIES", "many"),
            ("REPRO_TASK_TIMEOUT", "soon"),
            ("REPRO_FAULT_RATE", "often"),
            ("REPRO_FAULT_SEED", "x"),
        ],
    )
    def test_invalid_env_values(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigurationError):
            FaultPolicy.from_env()


class TestInjector:
    def test_zero_rate_never_fires(self):
        for i in range(50):
            maybe_inject_fault(i, 1, 0.0, seed=0)

    def test_unit_rate_always_fires(self):
        with pytest.raises(InjectedFault):
            maybe_inject_fault(0, 1, 1.0, seed=0)

    def test_deterministic_per_index_and_attempt(self):
        def fires(index, attempt):
            try:
                maybe_inject_fault(index, attempt, 0.5, seed=3)
            except InjectedFault:
                return True
            return False

        pattern = [(i, a, fires(i, a)) for i in range(8) for a in (1, 2)]
        assert pattern == [(i, a, fires(i, a)) for i in range(8) for a in (1, 2)]
        # Both outcomes occur somewhere in the grid.
        outcomes = {fired for _, _, fired in pattern}
        assert outcomes == {True, False}


class TestRetry:
    def test_flaky_task_recovers(self, tmp_path):
        registry = TimingRegistry()
        policy = FaultPolicy(on_error="retry", max_retries=3, backoff_s=0.0)
        runner = ParallelRunner(1, name="flaky", registry=registry, policy=policy)
        specs = [(i, str(tmp_path / f"counter{i}"), 2) for i in range(4)]
        assert runner.map(tasks.flaky_file, specs) == [0, 10, 20, 30]
        stats = registry.stages["flaky"]
        assert stats.retries == 8  # 2 planned failures per task
        assert stats.failures == 0

    def test_retry_exhausted_raises_original(self):
        policy = FaultPolicy(on_error="retry", max_retries=2, backoff_s=0.0)
        runner = ParallelRunner(1, policy=policy)
        with pytest.raises(ValueError, match="exploded"):
            runner.map(tasks.explode, range(3))

    def test_injected_faults_do_not_change_results_serial(self):
        specs = tasks.seeded_specs(10, 42, "x")
        clean = ParallelRunner(1).map(tasks.pair_with_draw, specs)
        runner = ParallelRunner(1, policy=FaultPolicy(**FAULTY_RETRY))
        faulty = runner.map(tasks.pair_with_draw, specs)
        assert faulty == clean

    def test_injected_faults_do_not_change_results_pooled(self):
        specs = tasks.seeded_specs(10, 42, "x")
        clean = ParallelRunner(1).map(tasks.pair_with_draw, specs)
        runner = ParallelRunner(4, policy=FaultPolicy(**FAULTY_RETRY))
        faulty = runner.map(tasks.pair_with_draw, specs)
        assert faulty == clean

    def test_retry_counts_reach_registry(self):
        registry = TimingRegistry()
        runner = ParallelRunner(
            1, name="inj", registry=registry, policy=FaultPolicy(**FAULTY_RETRY)
        )
        runner.map(tasks.pair_with_draw, tasks.seeded_specs(10, 42, "x"))
        assert registry.stages["inj"].retries > 0
        assert registry.stages["inj"].failures == 0


class TestSkip:
    def test_completed_results_salvaged(self):
        registry = TimingRegistry()
        policy = FaultPolicy(on_error="skip", max_retries=1, backoff_s=0.0)
        runner = ParallelRunner(1, name="skip", registry=registry, policy=policy)
        rows = runner.map(tasks.explode_odd, range(6))
        assert [rows[i] for i in (0, 2, 4)] == [0, 4, 16]
        for i in (1, 3, 5):
            failure = rows[i]
            assert isinstance(failure, TaskFailure)
            assert failure.index == i
            assert failure.error_type == "ValueError"
            assert f"task {i} exploded" in failure.message
            assert "ValueError" in failure.traceback
            assert failure.attempts == 2  # 1 try + 1 retry
            assert not failure.timed_out
        stats = registry.stages["skip"]
        assert stats.failures == 3
        assert stats.retries == 3

    def test_skip_salvage_pooled(self):
        policy = FaultPolicy(on_error="skip", max_retries=0, backoff_s=0.0)
        rows = ParallelRunner(4, policy=policy).map(tasks.explode_odd, range(8))
        assert [r for r in rows if not isinstance(r, TaskFailure)] == [0, 4, 16, 36]
        assert [r.index for r in rows if isinstance(r, TaskFailure)] == [1, 3, 5, 7]


class TestTimeout:
    def test_serial_post_hoc_timeout(self):
        registry = TimingRegistry()
        policy = FaultPolicy(
            on_error="skip", max_retries=0, timeout_s=0.05, backoff_s=0.0
        )
        runner = ParallelRunner(1, name="slow", registry=registry, policy=policy)
        rows = runner.map(tasks.sleeper, [(1, 0.0), (2, 0.2)])
        assert rows[0] == 1
        assert isinstance(rows[1], TaskFailure)
        assert rows[1].timed_out
        assert registry.stages["slow"].timeouts == 1

    def test_pool_timeout_salvages(self):
        policy = FaultPolicy(
            on_error="skip", max_retries=0, timeout_s=0.3, backoff_s=0.0
        )
        rows = ParallelRunner(2, policy=policy).map(
            tasks.sleeper, [(1, 0.0), (2, 5.0), (3, 0.0)]
        )
        assert rows[0] == 1 and rows[2] == 3
        assert isinstance(rows[1], TaskFailure)
        assert rows[1].timed_out
        assert rows[1].error_type == "TimeoutError"

    def test_timeout_exhaustion_raises_execution_error(self):
        policy = FaultPolicy(on_error="raise", timeout_s=0.05)
        with pytest.raises(ExecutionError, match="timed out"):
            ParallelRunner(1, policy=policy).map(tasks.sleeper, [(1, 0.2)])


class TestPoolDegradation:
    def test_broken_pool_degrades_to_serial(self, tmp_path):
        marker = str(tmp_path / "killed")
        policy = FaultPolicy(on_error="skip", max_retries=1, backoff_s=0.0)
        counters = FaultCounters()
        results = run_with_faults(
            tasks.kill_worker_once,
            [(i, marker) for i in range(6)],
            workers=2,
            policy=policy,
            counters=counters,
        )
        assert results == [i * 2 for i in range(6)]
        assert counters.pool_breaks == 1
        assert counters.failures == 0

    def test_broken_pool_keeps_completed_results(self, tmp_path):
        # Under retry the rescue must also yield a complete, correct sweep.
        marker = str(tmp_path / "killed")
        policy = FaultPolicy(on_error="retry", max_retries=2, backoff_s=0.0)
        rows = ParallelRunner(2, policy=policy).map(
            tasks.kill_worker_once, [(i, marker) for i in range(4)]
        )
        assert rows == [0, 2, 4, 6]


class TestWorkerCountInvariance:
    def test_faulty_pooled_equals_clean_serial(self):
        specs = tasks.seeded_specs(12, 5, "inv")
        clean = ParallelRunner(1).map(tasks.pair_with_draw, specs)
        policy = FaultPolicy(**FAULTY_RETRY)
        for workers in (1, 4):
            faulty = ParallelRunner(workers, policy=policy).map(
                tasks.pair_with_draw, specs
            )
            assert faulty == clean
