"""Worker-count invariance of the ported Monte-Carlo consumers.

Every consumer on the execution layer must produce identical aggregate
results for ``REPRO_WORKERS=1`` and ``REPRO_WORKERS=4`` (small budgets
here; the full-budget versions run in ``benchmarks/``).
"""

from repro.analysis import figures as F
from repro.sim.field import FieldConfig
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import FieldGrid, GridConfig, InterferenceModel

#: Two points per axis of the Figs. 6-8 sweeps: loss_jam, sweep_cycle,
#: loss_hop, power_floor (8 pool tasks, in that order).
SWEEP_AXES = ((10.0, 60.0), (3, 6), (0.0, 50.0), (6, 9))


def _with_workers(monkeypatch, workers, fn):
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    return fn()


def _sweeps():
    # The sweep cache is keyed on the arguments, not on the REPRO_* knobs.
    F.parameter_sweeps.cache_clear()
    try:
        return F.parameter_sweeps("max", 300, 0, *SWEEP_AXES)
    finally:
        F.parameter_sweeps.cache_clear()


def _grid_run(seed=11, slots=20, **kwargs):
    """A small 6-network grid in 3 shards, as a comparable tuple per network."""
    defaults = paper_defaults()
    config = GridConfig(
        field=FieldConfig(mdp=defaults.mdp, jammer=field_jammer_config(defaults)),
        num_networks=6,
        width_m=30.0,
        height_m=30.0,
        interference=InterferenceModel(radius_m=12.0),
    )
    result = FieldGrid(config, seed=seed, shards=3, **kwargs).run(slots)
    return list(
        zip(
            result.goodput_pkts_per_slot.tolist(),
            result.utilization.tolist(),
            result.metrics,
        )
    )


class TestFieldGridShards:
    def test_worker_count_invariance(self, monkeypatch):
        serial = _with_workers(monkeypatch, 1, _grid_run)
        pooled = _with_workers(monkeypatch, 4, _grid_run)
        assert serial == pooled

    def test_explicit_workers_argument(self):
        assert _grid_run(workers=1) == _grid_run(workers=2)

    def test_rows_cover_networks(self):
        rows = _grid_run(workers=1)
        assert len(rows) == 6
        for goodput, utilization, _ in rows:
            assert goodput >= 0.0
            assert 0.0 <= utilization <= 1.0

    def test_deterministic_given_seed(self):
        assert _grid_run(seed=3, workers=1) == _grid_run(seed=3, workers=1)


class TestParameterSweeps:
    def test_worker_count_invariance(self, monkeypatch):
        serial = _with_workers(monkeypatch, 1, _sweeps)
        pooled = _with_workers(monkeypatch, 4, _sweeps)
        assert set(serial) == set(pooled)
        for name in serial:
            assert serial[name] == pooled[name], name

    def test_stable_across_processes_seeding(self):
        """Sweep streams no longer depend on PYTHONHASHSEED (builtin hash)."""
        from repro.core.mdp import MDPConfig
        from repro.rng import stable_hash

        cfg = MDPConfig(loss_jam=50.0, jammer_mode="max")
        assert stable_hash(cfg) == stable_hash(
            MDPConfig(loss_jam=50.0, jammer_mode="max")
        )
        assert stable_hash(cfg) != stable_hash(
            MDPConfig(loss_jam=60.0, jammer_mode="max")
        )


class TestFig11Parallel:
    def test_fig11a_worker_count_invariance(self, monkeypatch):
        serial = _with_workers(
            monkeypatch, 1, lambda: F.fig11a_scheme_comparison(slots=40, seed=0)
        )
        pooled = _with_workers(
            monkeypatch, 4, lambda: F.fig11a_scheme_comparison(slots=40, seed=0)
        )
        assert serial == pooled
        assert set(serial) == {"PSV FH", "Rand FH", "RL FH (optimal)", "w/o Jx"}

    def test_fig11b_worker_count_invariance(self, monkeypatch):
        def call():
            return F.fig11b_jammer_timeslot(durations=(0.5, 3.0), slots=30, seed=0)

        assert _with_workers(monkeypatch, 1, call) == _with_workers(
            monkeypatch, 4, call
        )


class TestFaultInjectedConsumers:
    """Injected worker crashes must not change (retry) or sink (skip) a sweep."""

    def _sweep(self, monkeypatch, workers, **policy):
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        for name, value in policy.items():
            monkeypatch.setenv(f"REPRO_{name.upper()}", str(value))
        return _sweeps()

    def _clear_fault_env(self, monkeypatch):
        for name in (
            "REPRO_FAULT_RATE",
            "REPRO_FAULT_SEED",
            "REPRO_ON_ERROR",
            "REPRO_MAX_RETRIES",
            "REPRO_WORKERS",
        ):
            monkeypatch.delenv(name, raising=False)

    def test_retry_matches_fault_free_run(self, monkeypatch):
        self._clear_fault_env(monkeypatch)
        clean = self._sweep(monkeypatch, 1)
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.4")
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        for workers in (1, 2):
            faulty = self._sweep(monkeypatch, workers, on_error="retry", max_retries=6)
            assert faulty == clean

    def test_skip_salvages_surviving_rows(self, monkeypatch):
        self._clear_fault_env(monkeypatch)
        clean = self._sweep(monkeypatch, 1)
        # fault_seed=2 at rate 0.5 fails exactly tasks 0 and 7 (the first
        # loss_jam and the last power_floor point) on their only attempt.
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        monkeypatch.setenv("REPRO_FAULT_SEED", "2")
        sweeps = self._sweep(monkeypatch, 1, on_error="skip", max_retries=0)
        assert sweeps == {
            **clean,
            "loss_jam": clean["loss_jam"][1:],
            "power_floor": clean["power_floor"][:-1],
        }

    def test_all_faults_skip_yields_empty_sweep(self, monkeypatch):
        self._clear_fault_env(monkeypatch)
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        sweeps = self._sweep(monkeypatch, 1, on_error="skip", max_retries=1)
        assert sweeps == dict.fromkeys(
            ("loss_jam", "sweep_cycle", "loss_hop", "power_floor"), ()
        )

    def test_salvaged_sweep_is_not_served_to_a_later_clean_call(self, monkeypatch):
        # No cache_clear here: the cache itself must refuse a partial sweep.
        # Seed 5 is used by no other test, so no earlier entry interferes.
        self._clear_fault_env(monkeypatch)
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        monkeypatch.setenv("REPRO_FAULT_SEED", "2")
        monkeypatch.setenv("REPRO_ON_ERROR", "skip")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        partial = F.parameter_sweeps("max", 300, 5, *SWEEP_AXES)
        assert len(partial["loss_jam"]) == len(partial["power_floor"]) == 1
        self._clear_fault_env(monkeypatch)
        full = F.parameter_sweeps("max", 300, 5, *SWEEP_AXES)
        assert full is not partial
        assert all(len(points) == 2 for points in full.values())
        assert F.parameter_sweeps("max", 300, 5, *SWEEP_AXES) is full
