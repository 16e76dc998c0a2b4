"""Determinism and equivalence tests for the sharded field grid.

The contract under test: sharding, worker fan-out, batching and record
retention are *pure performance knobs* — none of them may change a single
bit of the simulation. And a grid of N networks is exactly N solo
:class:`FieldExperiment` runs on derived seeds, coupled only through
delivery-time interference.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dqn import DQNAgent, DQNConfig
from repro.errors import ConfigurationError
from repro.obs.metrics import METRICS
from repro.sim.field import (
    DQNPolicyAdapter,
    FieldConfig,
    FieldExperiment,
    FieldResult,
)
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import (
    FieldGrid,
    GridConfig,
    InterferenceModel,
    SchemeAdapterFactory,
    network_positions,
    network_seed,
    resolve_shards,
)

SLOTS = 40


def _field_config(sampling: str = "aggregate") -> FieldConfig:
    defaults = paper_defaults()
    return FieldConfig(
        mdp=defaults.mdp,
        jammer=field_jammer_config(defaults),
        sampling=sampling,
    )


def _grid_config(sampling: str = "aggregate", **kwargs) -> GridConfig:
    return GridConfig(field=_field_config(sampling), **kwargs)


def _network_result(result, index: int) -> FieldResult:
    """Network ``index`` of a grid result in solo :class:`FieldResult` form."""
    return FieldResult(
        slots=result.slots,
        goodput_pkts_per_slot=float(result.goodput_pkts_per_slot[index]),
        utilization=float(result.utilization[index]),
        metrics=result.metrics[index],
        records=result.records[index] if result.records is not None else (),
    )


def _solo_result(sampling: str, seed: int, index: int, slots: int = SLOTS):
    """Network ``index`` of a grid replayed as a standalone experiment."""
    cfg = _field_config(sampling)
    net = network_seed(seed, index)
    adapter = SchemeAdapterFactory("optimal")(cfg.mdp, net)
    return FieldExperiment(cfg, adapter, seed=net).run_experiment(slots)


class TestResolveShards:
    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards() == 1
        monkeypatch.setenv("REPRO_SHARDS", "")
        assert resolve_shards() == 1

    def test_env_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert resolve_shards() == 3
        assert resolve_shards(5) == 5
        assert resolve_shards("auto") >= 1

    def test_rejects_garbage(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_shards("many")
        with pytest.raises(ConfigurationError):
            resolve_shards(0)
        monkeypatch.setenv("REPRO_SHARDS", "-2")
        with pytest.raises(ConfigurationError):
            resolve_shards()


class TestGridConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _grid_config(num_networks=0)
        with pytest.raises(ConfigurationError):
            _grid_config(width_m=0.0)
        with pytest.raises(ConfigurationError):
            _grid_config(scheme="nonesuch")
        with pytest.raises(ConfigurationError):
            InterferenceModel(radius_m=-1.0)

    def test_positions_deterministic(self):
        a = network_positions(7, 10, 100.0, 50.0)
        b = network_positions(7, 10, 100.0, 50.0)
        assert np.array_equal(a, b)
        assert a.shape == (10, 2)
        assert a[:, 0].max() <= 100.0 and a[:, 1].max() <= 50.0


class TestSoloEquivalence:
    """A 1-network grid is bit-identical to a solo FieldExperiment."""

    @pytest.mark.parametrize("sampling", ["packet", "aggregate"])
    def test_single_network_matches_solo(self, sampling):
        seed = 11
        grid = FieldGrid(
            _grid_config(sampling, num_networks=1, keep_records=True),
            seed=seed,
        )
        got = grid.run(SLOTS)
        want = _solo_result(sampling, seed, 0)
        assert got.goodput_pkts_per_slot[0] == want.goodput_pkts_per_slot
        assert got.utilization[0] == want.utilization
        assert got.metrics[0] == want.metrics
        assert len(got.records[0]) == len(want.records)
        for mine, ref in zip(got.records[0], want.records):
            assert dataclasses.astuple(mine) == dataclasses.astuple(ref)

    @pytest.mark.parametrize("sampling", ["packet", "aggregate"])
    def test_network_in_grid_matches_solo(self, sampling):
        # Without interference the networks are independent: any network of
        # a multi-network grid replays alone on its derived seed.
        seed, index = 3, 4
        grid = FieldGrid(_grid_config(sampling, num_networks=6), seed=seed)
        got = _network_result(grid.run(SLOTS), index)
        want = _solo_result(sampling, seed, index)
        assert got.goodput_pkts_per_slot == want.goodput_pkts_per_slot
        assert got.utilization == want.utilization
        assert got.metrics == want.metrics


class TestKnobInvariance:
    """Shards, workers, batching, records: zero effect on results."""

    @pytest.mark.parametrize("sampling", ["packet", "aggregate"])
    def test_shard_count_invariance(self, sampling):
        cfg = _grid_config(
            sampling,
            num_networks=10,
            width_m=30.0,
            height_m=30.0,
            interference=InterferenceModel(radius_m=15.0),
        )
        slots = 20 if sampling == "packet" else SLOTS
        base = FieldGrid(cfg, seed=5, shards=1).run(slots)
        for shards in (2, 3, 8):
            got = FieldGrid(cfg, seed=5, shards=shards).run(slots)
            # Empty strips are skipped, so the effective count may be lower.
            assert 1 <= got.shards <= min(shards, cfg.num_networks)
            assert np.array_equal(
                got.goodput_pkts_per_slot, base.goodput_pkts_per_slot
            )
            assert np.array_equal(got.utilization, base.utilization)
            assert got.metrics == base.metrics

    def test_worker_count_invariance(self):
        cfg = _grid_config(
            num_networks=8,
            width_m=30.0,
            height_m=30.0,
            interference=InterferenceModel(radius_m=12.0),
        )
        one = FieldGrid(cfg, seed=2, shards=4, workers=1).run(SLOTS)
        two = FieldGrid(cfg, seed=2, shards=4, workers=2).run(SLOTS)
        assert np.array_equal(
            one.goodput_pkts_per_slot, two.goodput_pkts_per_slot
        )
        assert one.metrics == two.metrics

    def test_field_batch_invariance(self):
        cfg = _grid_config(num_networks=4)
        small = FieldGrid(cfg, seed=9, field_batch=1).run(SLOTS)
        large = FieldGrid(cfg, seed=9, field_batch=256).run(SLOTS)
        assert np.array_equal(
            small.goodput_pkts_per_slot, large.goodput_pkts_per_slot
        )
        # The hybrid tier also blocks its adjudication uniforms, and its
        # co-channel neighbours interfere.
        hybrid = GridConfig(
            field=dataclasses.replace(_field_config(), channel="hybrid"),
            num_networks=12,
            width_m=30.0,
            height_m=30.0,
            interference=InterferenceModel(),
        )
        base = FieldGrid(hybrid, seed=9, field_batch=1).run(SLOTS)
        for batch in (7, 256):
            got = FieldGrid(hybrid, seed=9, field_batch=batch).run(SLOTS)
            assert np.array_equal(
                got.goodput_pkts_per_slot, base.goodput_pkts_per_slot
            )
            assert np.array_equal(got.utilization, base.utilization)
            assert got.metrics == base.metrics

    def test_keep_records_invariance(self):
        cfg = _grid_config(num_networks=4)
        lean = FieldGrid(cfg, seed=1).run(SLOTS)
        full = FieldGrid(
            dataclasses.replace(cfg, keep_records=True), seed=1
        ).run(SLOTS)
        assert lean.records is None
        assert len(full.records) == 4
        assert all(len(r) == SLOTS for r in full.records)
        assert np.array_equal(
            lean.goodput_pkts_per_slot, full.goodput_pkts_per_slot
        )

    def test_repeated_run_identical(self):
        grid = FieldGrid(_grid_config(num_networks=3), seed=4)
        first = grid.run(SLOTS)
        second = grid.run(SLOTS)
        assert np.array_equal(
            first.goodput_pkts_per_slot, second.goodput_pkts_per_slot
        )
        assert first.metrics == second.metrics


class TestInterference:
    def test_interference_reduces_goodput(self):
        # A dense field: everyone inside everyone's interference radius.
        quiet = _grid_config(num_networks=8, width_m=10.0, height_m=10.0)
        noisy = dataclasses.replace(
            quiet, interference=InterferenceModel(radius_m=20.0)
        )
        clean = FieldGrid(quiet, seed=6).run(SLOTS)
        contested = FieldGrid(noisy, seed=6).run(SLOTS)
        assert contested.mean_goodput < clean.mean_goodput

    def test_out_of_range_networks_unaffected(self):
        # Interference with a tiny radius on a sparse field is a no-op.
        sparse = _grid_config(num_networks=4, width_m=1000.0, height_m=1000.0)
        wired = dataclasses.replace(
            sparse, interference=InterferenceModel(radius_m=0.5)
        )
        assert np.array_equal(
            FieldGrid(sparse, seed=8).run(SLOTS).goodput_pkts_per_slot,
            FieldGrid(wired, seed=8).run(SLOTS).goodput_pkts_per_slot,
        )


class _DQNFactory:
    """Picklable factory: every network shares one trained-ish agent."""

    def __init__(self, agent):
        self.agent = agent

    def __call__(self, mdp, net_seed):
        from repro.rng import derive

        return DQNPolicyAdapter(
            self.agent, mdp, seed=derive(net_seed, "grid-adapter")
        )


class TestDQNGrid:
    def test_batched_greedy_matches_solo(self):
        defaults = paper_defaults()
        mdp = defaults.mdp
        cfg = DQNConfig(
            observation_size=15,  # the adapter's default 3 * 5 history
            num_actions=mdp.num_channels * mdp.num_power_levels,
            hidden_sizes=(16,),
        )
        factory = _DQNFactory(DQNAgent(cfg, seed=0))
        grid_cfg = _grid_config(num_networks=3, adapter_factory=factory)
        got = FieldGrid(grid_cfg, seed=13).run(SLOTS)
        for i in range(3):
            net = network_seed(13, i)
            solo = FieldExperiment(
                _field_config("aggregate"),
                factory(mdp, net),
                seed=net,
            ).run_experiment(SLOTS)
            assert got.goodput_pkts_per_slot[i] == solo.goodput_pkts_per_slot
            assert got.metrics[i] == solo.metrics


class _FleetFactory:
    """Picklable factory: a few distinct agents assigned round-robin."""

    def __init__(self, agents, grid_seed, num_networks, history_length=5):
        self.agents = agents
        self.order = {
            network_seed(grid_seed, i): i for i in range(num_networks)
        }
        self.history_length = history_length

    def __call__(self, mdp, net_seed):
        from repro.rng import derive

        agent = self.agents[self.order[net_seed] % len(self.agents)]
        return DQNPolicyAdapter(
            agent,
            mdp,
            history_length=self.history_length,
            seed=derive(net_seed, "grid-adapter"),
        )


def _fleet_agents(count, seed0, history_length=5, **config):
    mdp = paper_defaults().mdp
    cfg = DQNConfig(
        observation_size=3 * history_length,
        num_actions=mdp.num_channels * mdp.num_power_levels,
        **config,
    )
    return [DQNAgent(cfg, seed=seed0 + i) for i in range(count)]


def _assert_solo_replays(factory, cfg, got, seed, slots):
    """Every network of grid result ``got`` equals its solo replay."""
    for i in range(cfg.num_networks):
        net = network_seed(seed, i)
        solo = FieldExperiment(
            cfg.field, factory(cfg.field.mdp, net), seed=net
        ).run_experiment(slots)
        assert got.goodput_pkts_per_slot[i] == solo.goodput_pkts_per_slot
        assert got.utilization[i] == solo.utilization
        assert got.metrics[i] == solo.metrics


def _run_counted(cfg, seed, slots):
    """A grid run and its ``(sim.policy_rows_scored, sim.slots)`` counters."""
    METRICS.reset()
    try:
        got = FieldGrid(cfg, seed=seed).run(slots)
        counters = METRICS.snapshot()["counters"]
    finally:
        METRICS.reset()
    return got, counters["sim.policy_rows_scored"], counters["sim.slots"]


class TestMixedFleet:
    """Three distinct DQN agents round-robin over 24 networks.

    The fleet shape of Fig. 11a at scale: a few policies, many networks.
    The interfering digest was generated before the stacked forward
    de-duplicated its weight slices and must not move. Drawn fleets of
    1–6 agents over 2–24 networks check the greedy-action memo (on when
    each agent has at least ``GROUP_MIN_ROWS`` networks) and the
    every-row path against solo replays.
    """

    NETWORKS = 24
    SEED = 29
    DIGEST = "2b0822a33ce45eaf296527c93f5b22a98343ea869b7e0f96ba4f579d2305b8af"

    def _factory(self):
        agents = _fleet_agents(3, seed0=100)
        return _FleetFactory(agents, self.SEED, self.NETWORKS)

    def test_every_network_matches_its_solo_replay(self):
        factory = self._factory()
        cfg = _grid_config(num_networks=self.NETWORKS, adapter_factory=factory)
        got, scored, slots = _run_counted(cfg, self.SEED, SLOTS)
        _assert_solo_replays(factory, cfg, got, self.SEED, SLOTS)
        # Repeated (policy, window) keys were answered from the memo.
        assert 0 < scored < slots == self.NETWORKS * SLOTS

    @settings(max_examples=25, deadline=None)
    @given(
        distinct=st.integers(1, 6),
        networks=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
        slots=st.integers(1, 40),
    )
    def test_drawn_fleets_match_their_solo_replays(
        self, distinct, networks, seed, slots
    ):
        agents = _fleet_agents(distinct, seed0=seed, hidden_sizes=(16,))
        factory = _FleetFactory(agents, seed, networks)
        cfg = _grid_config(num_networks=networks, adapter_factory=factory)
        got = FieldGrid(cfg, seed=seed).run(slots)
        _assert_solo_replays(factory, cfg, got, seed, slots)

    def test_unkeyable_fleet_scores_every_row(self):
        # An 8-slot window over 3·C·P = 480 symbols has 480**8 > 2**63
        # values, so no (policy, window) key fits in int64: the memo is
        # off and the forward scores every row of every slot. Two agents
        # over 16 networks are scored by policy group, the memo's shape.
        mdp = paper_defaults().mdp
        assert (3 * mdp.num_channels * mdp.num_power_levels) ** 8 >= 2**63
        agents = _fleet_agents(2, seed0=200, history_length=8, hidden_sizes=(16,))
        factory = _FleetFactory(agents, self.SEED, 16, history_length=8)
        cfg = _grid_config(num_networks=16, adapter_factory=factory)
        got, scored, slots = _run_counted(cfg, self.SEED, SLOTS)
        assert scored == slots == 16 * SLOTS
        _assert_solo_replays(factory, cfg, got, self.SEED, SLOTS)

    def test_interfering_fleet_digest(self):
        import hashlib

        cfg = _grid_config(
            num_networks=self.NETWORKS,
            width_m=40.0,
            height_m=40.0,
            adapter_factory=self._factory(),
            interference=InterferenceModel(),
        )
        got = FieldGrid(cfg, seed=self.SEED, shards=2).run(SLOTS)
        payload = (
            got.goodput_pkts_per_slot.tolist(),
            got.utilization.tolist(),
            [dataclasses.astuple(m) for m in got.metrics],
        )
        digest = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
        assert digest == self.DIGEST


class TestTabledHopGrid:
    """Table policies on a hop set against a fast, max-power jammer.

    The golden digests only pin random power, a 3 s jammer slot and a
    1 s Tx slot; this grid pins the other corner the fleet paths take:
    ``max`` power, a 0.7 s jammer slot against 3 s Tx slots, and hops
    drawn from a five-channel hop set. The digest was generated before
    the jammer bank and the table hops became arrays.
    """

    NETWORKS = 48
    SEED = 37
    HOPS = (1, 4, 7, 11, 14)
    DIGEST = "46b02df5193d60e082c62d75013ac197df2482d109627733baf2b410ba79242a"

    def _field(self) -> FieldConfig:
        defaults = paper_defaults()
        return FieldConfig(
            mdp=defaults.mdp,
            jammer=field_jammer_config(defaults, slot_duration_s=0.7),
            sampling="aggregate",
        )

    def _grid(self, **kwargs) -> GridConfig:
        return GridConfig(
            field=self._field(),
            num_networks=self.NETWORKS,
            adapter_factory=SchemeAdapterFactory("optimal", hop_channels=self.HOPS),
            **kwargs,
        )

    def test_interfering_digest(self):
        import hashlib

        got = FieldGrid(
            self._grid(interference=InterferenceModel()), seed=self.SEED, shards=2
        ).run(SLOTS)
        payload = (
            got.goodput_pkts_per_slot.tolist(),
            got.utilization.tolist(),
            [dataclasses.astuple(m) for m in got.metrics],
        )
        digest = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
        assert digest == self.DIGEST

    def test_networks_match_solo_replays(self):
        got = FieldGrid(self._grid(), seed=self.SEED).run(SLOTS)
        factory = SchemeAdapterFactory("optimal", hop_channels=self.HOPS)
        for i in range(0, self.NETWORKS, 5):
            net = network_seed(self.SEED, i)
            adapter = factory(self._field().mdp, net)
            solo = FieldExperiment(self._field(), adapter, seed=net).run_experiment(
                SLOTS
            )
            assert got.goodput_pkts_per_slot[i] == solo.goodput_pkts_per_slot
            assert got.utilization[i] == solo.utilization
            assert got.metrics[i] == solo.metrics


class TestAdversaryGrids:
    """The harder adversaries ride the same shard-invariance contract."""

    def _adversary_grid(self, adversary: str, scheme: str) -> GridConfig:
        from repro.jamming.jammer import (
            FollowerJammerConfig,
            ReactiveJammerConfig,
        )

        defaults = paper_defaults()
        jammer = field_jammer_config(
            defaults,
            adversary=adversary,
            reactive=ReactiveJammerConfig(
                duty_cycle=0.7, response_latency_s=0.2, decoy_discrimination=0.25
            ),
            follower=FollowerJammerConfig(lag_slots=1),
        )
        return GridConfig(
            field=FieldConfig(mdp=defaults.mdp, jammer=jammer),
            num_networks=6,
            width_m=30.0,
            height_m=30.0,
            scheme=scheme,
        )

    @pytest.mark.parametrize("adversary", ["reactive", "follower"])
    @pytest.mark.parametrize("scheme", ["optimal", "deception"])
    def test_shard_count_invariance(self, adversary, scheme):
        cfg = self._adversary_grid(adversary, scheme)
        base = FieldGrid(cfg, seed=5, shards=1).run(SLOTS)
        split = FieldGrid(cfg, seed=5, shards=3).run(SLOTS)
        assert np.array_equal(
            base.goodput_pkts_per_slot, split.goodput_pkts_per_slot
        )
        assert np.array_equal(base.utilization, split.utilization)
        assert base.metrics == split.metrics

    def test_deception_is_a_known_scheme(self):
        cfg = self._adversary_grid("reactive", "deception")
        result = FieldGrid(cfg, seed=1).run(SLOTS)
        assert result.mean_goodput > 0.0

    def test_unknown_scheme_still_rejected(self):
        with pytest.raises(ConfigurationError):
            GridConfig(field=_field_config(), scheme="wishful")


class TestTelemetryInvariance:
    """Telemetry is an observer: zero effect on results, and its merged
    series/labelled counters are bit-identical for any decomposition."""

    def _telem_grid(self) -> GridConfig:
        from repro.jamming.jammer import ReactiveJammerConfig

        defaults = paper_defaults()
        jammer = field_jammer_config(
            defaults,
            adversary="reactive",
            reactive=ReactiveJammerConfig(
                duty_cycle=0.7, response_latency_s=0.2, decoy_discrimination=0.25
            ),
        )
        return GridConfig(
            field=FieldConfig(mdp=defaults.mdp, jammer=jammer),
            num_networks=9,
            width_m=30.0,
            height_m=30.0,
            scheme="deception",
        )

    def _run_with_telemetry(
        self, monkeypatch, tmp_path, name, *, shards, workers, env=()
    ):
        from repro.obs import telemetry
        from repro.obs.metrics import METRICS

        path = tmp_path / f"TELEM_{name}.jsonl"
        monkeypatch.setenv("REPRO_TELEM", str(path))
        monkeypatch.setenv("REPRO_TELEM_INTERVAL", "10")
        for key, value in env:
            monkeypatch.setenv(key, value)
        telemetry.reset()
        METRICS.reset()
        try:
            result = FieldGrid(
                self._telem_grid(), seed=5, shards=shards, workers=workers
            ).run(SLOTS)
            telemetry.finish_run()
        finally:
            for key, _ in env:
                monkeypatch.delenv(key, raising=False)
            monkeypatch.delenv("REPRO_TELEM", raising=False)
            monkeypatch.delenv("REPRO_TELEM_INTERVAL", raising=False)
            telemetry.reset()
            METRICS.reset()
        doc = telemetry.load_telemetry(path)
        merged = telemetry.merge_frames(doc)
        labelled = {
            k: v
            for k, v in (doc.metrics or {}).get("counters", {}).items()
            if k.startswith(("jam.", "defense."))
        }
        return result, merged, labelled

    def test_merged_series_invariant_across_decompositions(
        self, monkeypatch, tmp_path
    ):
        base_result, base_series, base_counters = self._run_with_telemetry(
            monkeypatch, tmp_path, "s1w1", shards=1, workers=1
        )
        assert base_series["field"], "no field frames recorded"
        assert len(base_series["field"]) == SLOTS // 10
        assert base_counters, "no labelled jam/defense counters flushed"
        for name, shards, workers in (("s3w1", 3, 1), ("s3w2", 3, 2)):
            result, series, counters = self._run_with_telemetry(
                monkeypatch, tmp_path, name, shards=shards, workers=workers
            )
            assert np.array_equal(
                base_result.goodput_pkts_per_slot, result.goodput_pkts_per_slot
            )
            assert series == base_series
            assert counters == base_counters

    def test_engine_bit_identical_with_telemetry_on_or_off(
        self, monkeypatch, tmp_path
    ):
        off = FieldGrid(self._telem_grid(), seed=5, shards=3).run(SLOTS)
        on, _, _ = self._run_with_telemetry(
            monkeypatch, tmp_path, "onoff", shards=3, workers=1
        )
        assert np.array_equal(off.goodput_pkts_per_slot, on.goodput_pkts_per_slot)
        assert np.array_equal(off.utilization, on.utilization)
        assert off.metrics == on.metrics

    def test_fault_retries_do_not_double_count(self, monkeypatch, tmp_path):
        _, base_series, base_counters = self._run_with_telemetry(
            monkeypatch, tmp_path, "clean", shards=3, workers=2
        )
        _, series, counters = self._run_with_telemetry(
            monkeypatch,
            tmp_path,
            "faulty",
            shards=3,
            workers=2,
            env=(
                ("REPRO_ON_ERROR", "retry"),
                ("REPRO_MAX_RETRIES", "4"),
                ("REPRO_FAULT_RATE", "0.4"),
                ("REPRO_FAULT_SEED", "11"),
            ),
        )
        assert series == base_series
        assert counters == base_counters

    def test_trace_and_telemetry_share_one_pool(self, monkeypatch, tmp_path):
        """Both streams on with a pool: the one path whose worker context
        carries a trace id and a telemetry interval together."""
        import json

        _, base_series, _ = self._run_with_telemetry(
            monkeypatch, tmp_path, "serial", shards=3, workers=1
        )
        run_path = tmp_path / "RUN_both.jsonl"
        _, series, _ = self._run_with_telemetry(
            monkeypatch,
            tmp_path,
            "both",
            shards=3,
            workers=2,
            env=(("REPRO_TRACE", str(run_path)),),
        )
        assert series == base_series

        def kinds(path):
            lines = path.read_text().splitlines()
            return [json.loads(line) for line in lines]

        run = kinds(run_path)
        telem = kinds(tmp_path / "TELEM_both.jsonl")
        spans = {}
        for record in run:
            if record["type"] == "span":
                spans.setdefault(record["name"], []).append(record)
        (dispatch,) = spans["exec/dispatch"]
        tasks = spans["exec/task"]
        assert len(tasks) == 3
        assert {t["parent"] for t in tasks} == {dispatch["id"]}
        assert {s["parent"] for s in spans["sim/shard"]} == {t["id"] for t in tasks}
        assert {r["type"] for r in run} <= {"manifest", "span", "event"}
        assert {r["type"] for r in telem} == {"header", "frame", "metrics"}

    def test_long_window_matches_slot_records(self, monkeypatch, tmp_path):
        """A window past the initial buffer rows sums the per-slot records."""
        import bisect

        from repro.obs import telemetry

        path = tmp_path / "TELEM_long.jsonl"
        monkeypatch.setenv("REPRO_TELEM", str(path))
        monkeypatch.setenv("REPRO_TELEM_INTERVAL", "150")
        telemetry.reset()
        config = _field_config()
        net = network_seed(2, 0)
        adapter = SchemeAdapterFactory("optimal")(config.mdp, net)
        experiment = FieldExperiment(config, adapter, seed=net)
        try:
            experiment.run_experiment(200)
            telemetry.finish_run()
        finally:
            telemetry.reset()
        frames = telemetry.load_telemetry(path).frames
        assert [(f["slot0"], f["slots"]) for f in frames] == [(0, 150), (150, 50)]
        for frame in frames:
            records = experiment.records[frame["slot0"] :][: frame["slots"]]
            neg = [r.negotiation_s for r in records]
            assert frame["neg_sum"] == [sum(neg)]
            assert frame["attempted"] == [sum(r.packets_attempted for r in records)]
            assert frame["delivered"] == [sum(r.packets_delivered for r in records)]
            assert (frame["lat_min"], frame["lat_max"]) == (min(neg), max(neg))
            lat = [0] * (len(telemetry.LATENCY_BUCKETS) + 1)
            for value in neg:
                lat[bisect.bisect_left(telemetry.LATENCY_BUCKETS, value)] += 1
            assert frame["lat_counts"] == lat

    def test_frames_carry_duty_tokens_and_labels(self, monkeypatch, tmp_path):
        _, series, counters = self._run_with_telemetry(
            monkeypatch, tmp_path, "tok", shards=3, workers=1
        )
        window = series["field"][0]
        assert window["labels"] == {"adversary": "reactive", "scheme": "deception"}
        assert window["networks"] == list(range(9))
        assert len(window.get("tokens", ())) == 9
        # the deception adapter's decoys were flushed per network
        assert any(k.startswith("defense.decoys{") for k in counters)


class TestChannelTierGrids:
    """The fidelity tier composes with sharding without breaking invariance."""

    def _cfg(self, sampling, channel, **kwargs):
        defaults = paper_defaults()
        fld = FieldConfig(
            mdp=defaults.mdp,
            jammer=field_jammer_config(defaults),
            sampling=sampling,
            channel=channel,
        )
        return GridConfig(field=fld, **kwargs)

    @pytest.mark.parametrize("sampling", ["packet", "aggregate"])
    def test_shard_invariance_under_hybrid(self, sampling):
        cfg = self._cfg(sampling, "hybrid", num_networks=6)
        slots = 20 if sampling == "packet" else SLOTS
        base = FieldGrid(cfg, seed=5, shards=1).run(slots)
        got = FieldGrid(cfg, seed=5, shards=3).run(slots)
        assert np.array_equal(
            got.goodput_pkts_per_slot, base.goodput_pkts_per_slot
        )
        assert got.metrics == base.metrics

    @pytest.mark.parametrize("sampling", ["packet", "aggregate"])
    def test_hybrid_network_matches_solo(self, sampling):
        # The vectorised aggregate adjudication must draw exactly the
        # uniforms a solo replay of each network draws.
        seed, index = 3, 2
        cfg = self._cfg(sampling, "hybrid", num_networks=4)
        got = _network_result(FieldGrid(cfg, seed=seed).run(SLOTS), index)
        net = network_seed(seed, index)
        adapter = SchemeAdapterFactory("optimal")(cfg.field.mdp, net)
        want = FieldExperiment(cfg.field, adapter, seed=net).run_experiment(
            SLOTS
        )
        assert got.goodput_pkts_per_slot == want.goodput_pkts_per_slot
        assert got.utilization == want.utilization
        assert got.metrics == want.metrics

    def test_analytic_grid_bit_identical_to_default(self):
        base = FieldGrid(
            _grid_config("aggregate", num_networks=5), seed=7
        ).run(SLOTS)
        tiered = FieldGrid(
            self._cfg("aggregate", "analytic", num_networks=5), seed=7
        ).run(SLOTS)
        assert np.array_equal(
            tiered.goodput_pkts_per_slot, base.goodput_pkts_per_slot
        )
        assert tiered.metrics == base.metrics
