"""Tests for the process-pool Monte-Carlo runner."""

import pytest

from repro.errors import ConfigurationError
from repro.exec import ParallelRunner, resolve_workers
from repro.exec.timing import TimingRegistry

from tests.exec import tasks


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_auto_means_cpu_count(self):
        assert resolve_workers("auto") >= 1

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) == resolve_workers("auto")

    def test_empty_env_means_unset(self, monkeypatch):
        # `REPRO_WORKERS= python ...` must behave like the var was absent,
        # not die with "invalid literal for int()".
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert resolve_workers() == 1

    def test_whitespace_env_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "   ")
        assert resolve_workers() == 1

    def test_invalid_string(self):
        with pytest.raises(ConfigurationError):
            resolve_workers("many")

    def test_negative(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)


class TestMap:
    def test_serial_results_ordered(self):
        runner = ParallelRunner(1)
        assert runner.map(tasks.square, range(10)) == [i * i for i in range(10)]

    def test_pool_results_ordered(self):
        runner = ParallelRunner(4)
        assert runner.map(tasks.square, range(25)) == [i * i for i in range(25)]

    def test_pool_matches_serial(self):
        specs = list(range(17))
        serial = ParallelRunner(1).map(tasks.square, specs)
        pooled = ParallelRunner(4).map(tasks.square, specs)
        assert serial == pooled

    def test_empty_specs(self):
        assert ParallelRunner(4).map(tasks.square, []) == []

    def test_single_spec_stays_serial(self):
        # One spec never warrants a pool; lambda would fail to pickle.
        assert ParallelRunner(4).map(lambda s: s + 1, [41]) == [42]

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="exploded"):
            ParallelRunner(2).map(tasks.explode, range(4))

    def test_exceptions_propagate_serial(self):
        with pytest.raises(ValueError, match="exploded"):
            ParallelRunner(1).map(tasks.explode, range(4))


class TestSeededMap:
    """Tasks that derive their stream from the payload, run through ``map``."""

    def test_worker_count_invariance(self):
        """Same seed -> identical aggregates for 1 vs 4 workers."""
        specs = tasks.seeded_specs(12, 123, "inv")
        serial = ParallelRunner(1).map(tasks.pair_with_draw, specs)
        pooled = ParallelRunner(4).map(tasks.pair_with_draw, specs)
        assert serial == pooled

    def test_streams_are_independent(self):
        rows = ParallelRunner(1).map(
            tasks.pair_with_draw, tasks.seeded_specs(8, 0, "ind")
        )
        draws = [draw for _, draw in rows]
        assert len(set(draws)) == len(draws)

    def test_different_seeds_differ(self):
        a = ParallelRunner(1).map(tasks.pair_with_draw, tasks.seeded_specs(4, 1))
        b = ParallelRunner(1).map(tasks.pair_with_draw, tasks.seeded_specs(4, 2))
        assert a != b

    def test_stream_name_partitions(self):
        a = ParallelRunner(1).map(tasks.pair_with_draw, tasks.seeded_specs(4, 1, "a"))
        b = ParallelRunner(1).map(tasks.pair_with_draw, tasks.seeded_specs(4, 1, "b"))
        assert a != b


class TestRunnerTiming:
    def test_map_records_stage(self):
        registry = TimingRegistry()
        runner = ParallelRunner(1, name="unit-stage", registry=registry)
        runner.map(tasks.square, range(7))
        stats = registry.stages["unit-stage"]
        assert stats.calls == 1
        assert stats.items == 7
        assert stats.seconds >= 0.0
