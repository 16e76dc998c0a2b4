"""Tests for the field-experiment simulator and scenario factories."""

import dataclasses

import pytest

from repro.core.dqn import DQNAgent, DQNConfig
from repro.core.mdp import MDPConfig
from repro.errors import ConfigurationError, SimulationError
from repro.jamming.jammer import FieldJammerConfig
from repro.sim.field import (
    DQNPolicyAdapter,
    FieldConfig,
    FieldExperiment,
    StatePolicyAdapter,
)
from repro.sim.scenario import (
    SCHEMES,
    field_jammer_config,
    paper_defaults,
    scheme_policy,
)


class TestScenario:
    def test_paper_defaults(self):
        d = paper_defaults()
        assert d.mdp.loss_jam == 100.0
        assert d.mdp.loss_hop == 50.0
        assert d.mdp.sweep_cycle == 4
        assert d.mdp.tx_power_levels == tuple(range(6, 16))
        assert d.tx_slot_duration_s == 3.0

    def test_scheme_factories(self):
        d = paper_defaults()
        for name in SCHEMES:
            policy = scheme_policy(name, d.mdp, seed=0)
            action = policy.action(1)
            assert hasattr(action, "hop")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            scheme_policy("dqn-magic", paper_defaults().mdp)

    def test_field_jammer_matches_geometry(self):
        d = paper_defaults()
        cfg = field_jammer_config(d, slot_duration_s=1.5)
        assert cfg.slot_duration_s == 1.5
        assert cfg.num_channels == d.mdp.num_channels
        assert cfg.mode == d.mdp.jammer_mode


class TestFieldConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FieldConfig(tx_slot_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            FieldConfig(num_peripherals=0)
        with pytest.raises(ConfigurationError):
            FieldConfig(jam_state_threshold=0.0)
        with pytest.raises(ConfigurationError):
            FieldConfig(
                mdp=MDPConfig(num_channels=8),
                jammer=FieldJammerConfig(num_channels=16),
            )


class TestAdapters:
    def test_state_adapter_hops_within_hop_set(self):
        d = paper_defaults()
        policy = scheme_policy("rand", d.mdp, seed=0)
        adapter = StatePolicyAdapter(
            policy, d.mdp, hop_channels=(1, 5, 9), seed=1
        )
        seen = set()
        for _ in range(100):
            channel, _ = adapter.decide(1)
            seen.add(channel)
        assert seen <= {1, 5, 9}

    def test_hop_set_validation(self):
        d = paper_defaults()
        policy = scheme_policy("rand", d.mdp, seed=0)
        with pytest.raises(ConfigurationError):
            StatePolicyAdapter(policy, d.mdp, hop_channels=(3,))
        with pytest.raises(ConfigurationError, match="hop_channels"):
            StatePolicyAdapter(policy, d.mdp, hop_channels=(3, 3))
        with pytest.raises(ConfigurationError):
            StatePolicyAdapter(policy, d.mdp, hop_channels=(3, 99))

    def test_dqn_adapter_geometry_checks(self):
        d = paper_defaults()
        wrong_obs = DQNAgent(
            DQNConfig(observation_size=9, num_actions=160), seed=0
        )
        with pytest.raises(ConfigurationError):
            DQNPolicyAdapter(wrong_obs, d.mdp, history_length=5)
        wrong_actions = DQNAgent(
            DQNConfig(observation_size=15, num_actions=80), seed=0
        )
        with pytest.raises(ConfigurationError):
            DQNPolicyAdapter(wrong_actions, d.mdp, history_length=5)

    def test_dqn_adapter_decides(self):
        d = paper_defaults()
        agent = DQNAgent(DQNConfig(observation_size=15, num_actions=160), seed=1)
        adapter = DQNPolicyAdapter(agent, d.mdp, seed=2)
        channel, power = adapter.decide(1)
        assert 0 <= channel < 16 and 0 <= power < 10
        adapter.observe(1, channel, power)  # history update must not raise


class TestFieldExperiment:
    def run_scheme(self, name, slots=150, jammer=True, seed=5):
        d = paper_defaults()
        policy = scheme_policy(name, d.mdp, seed=seed)
        cfg = FieldConfig(
            mdp=d.mdp, jammer=field_jammer_config(d) if jammer else None
        )
        exp = FieldExperiment(
            cfg, StatePolicyAdapter(policy, d.mdp, seed=seed + 1), seed=seed + 2
        )
        return exp.run_experiment(slots)

    def test_result_fields(self):
        res = self.run_scheme("optimal")
        assert res.slots == 150
        assert len(res.records) == 150
        assert res.goodput_pkts_per_slot > 0
        assert 0.0 < res.utilization <= 1.0
        assert res.metrics.slots == 150

    def test_no_jammer_is_clean(self):
        res = self.run_scheme("optimal", jammer=False)
        assert res.metrics.success_rate == 1.0
        assert res.metrics.jam_attempt_rate == 0.0

    def test_fig11a_ordering(self):
        # The paper's headline: RL FH > Rand FH > PSV FH under jamming, all
        # below the no-jammer ceiling.
        psv = self.run_scheme("psv").goodput_pkts_per_slot
        rand = self.run_scheme("rand").goodput_pkts_per_slot
        optimal = self.run_scheme("optimal").goodput_pkts_per_slot
        clean = self.run_scheme("optimal", jammer=False).goodput_pkts_per_slot
        assert optimal > rand > psv
        assert clean > optimal

    def test_jammed_slots_lose_packets(self):
        res = self.run_scheme("psv")
        jammed = [r for r in res.records if r.state == "J"]
        clean = [r for r in res.records if r.state not in ("J", "TJ")]
        assert jammed and clean
        mean_jammed = sum(r.packets_delivered for r in jammed) / len(jammed)
        mean_clean = sum(r.packets_delivered for r in clean) / len(clean)
        assert mean_jammed < mean_clean * 0.5

    def test_run_experiment_validation(self):
        d = paper_defaults()
        policy = scheme_policy("psv", d.mdp)
        exp = FieldExperiment(
            FieldConfig(mdp=d.mdp),
            StatePolicyAdapter(policy, d.mdp, seed=0),
            seed=1,
        )
        with pytest.raises(SimulationError):
            exp.run_experiment(0)

    def test_reproducible_given_seed(self):
        a = self.run_scheme("optimal", slots=80, seed=9)
        b = self.run_scheme("optimal", slots=80, seed=9)
        assert a.goodput_pkts_per_slot == b.goodput_pkts_per_slot


class TestSamplingModes:
    def _experiment(self, sampling, seed=21):
        d = paper_defaults()
        cfg = FieldConfig(
            mdp=d.mdp, jammer=field_jammer_config(d), sampling=sampling
        )
        policy = scheme_policy("optimal", d.mdp)
        return FieldExperiment(
            cfg, StatePolicyAdapter(policy, d.mdp, seed=seed), seed=seed
        )

    def test_sampling_validation(self):
        d = paper_defaults()
        with pytest.raises(ConfigurationError):
            FieldConfig(mdp=d.mdp, sampling="bogus")

    def test_aggregate_tracks_packet_statistics(self):
        # The renewal-CLT data phase is an approximation of the per-packet
        # loop, not a reskin — but their goodput must agree closely.
        packet = self._experiment("packet").run_experiment(200)
        aggregate = self._experiment("aggregate").run_experiment(200)
        assert aggregate.goodput_pkts_per_slot == pytest.approx(
            packet.goodput_pkts_per_slot, rel=0.05
        )
        assert aggregate.utilization == pytest.approx(
            packet.utilization, rel=0.05
        )

    def test_aggregate_reproducible(self):
        a = self._experiment("aggregate").run_experiment(60)
        b = self._experiment("aggregate").run_experiment(60)
        assert a.goodput_pkts_per_slot == b.goodput_pkts_per_slot
        assert a.metrics == b.metrics


class TestRepeatedRuns:
    def _experiment(self, seed=17):
        d = paper_defaults()
        cfg = FieldConfig(mdp=d.mdp, jammer=field_jammer_config(d))
        policy = scheme_policy("optimal", d.mdp)
        return FieldExperiment(
            cfg, StatePolicyAdapter(policy, d.mdp, seed=seed), seed=seed
        )

    def test_windows_continue_where_left_off(self):
        # Two 40-slot calls replay exactly as one 80-slot call: the
        # experiment resumes mid-stream rather than restarting.
        split = self._experiment()
        first = split.run_experiment(40)
        second = split.run_experiment(40)
        whole = self._experiment().run_experiment(80)
        assert [r.slot for r in second.records] == list(range(40, 80))
        combined = list(first.records) + list(second.records)
        assert len(combined) == len(whole.records)
        for mine, ref in zip(combined, whole.records):
            assert mine == ref

    def test_per_call_summaries_and_accumulated_records(self):
        exp = self._experiment()
        first = exp.run_experiment(30)
        second = exp.run_experiment(30)
        # Each FieldResult covers only its own window...
        assert first.metrics.slots == 30
        assert second.metrics.slots == 30
        assert len(second.records) == 30
        # ...while the experiment-level record list accumulates.
        assert len(exp.records) == 60
        whole_goodput = sum(
            r.packets_delivered for r in exp.records
        ) / len(exp.records)
        assert whole_goodput == pytest.approx(
            (first.goodput_pkts_per_slot + second.goodput_pkts_per_slot) / 2
        )


class TestStreamMatrix:
    """The per-network uniform streams behind ``sampling="aggregate"``."""

    @staticmethod
    def _matrix(seeds, draws, block):
        from repro.rng import make_rng
        from repro.sim.shard import _StreamMatrix

        return _StreamMatrix([make_rng(s) for s in seeds], draws, block)

    def test_block_size_invariance(self):
        streams = [self._matrix((3, 8), 5, block) for block in (1, 7, 64)]
        for _ in range(10):
            first, *rest = (m.next_slots() for m in streams)
            for other in rest:
                assert first.tolist() == other.tolist()

    def test_matches_sequential_draws(self):
        from repro.rng import make_rng

        stream = self._matrix((4, 9), 3, 7)
        references = [make_rng(4), make_rng(9)]
        for _ in range(20):
            got = stream.next_slots()
            for row, reference in zip(got, references):
                assert list(row) == list(reference.random(3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._matrix((0,), 0, None)
        with pytest.raises(ConfigurationError):
            self._matrix((0,), 3, 0)


class TestFieldBatchResolution:
    def test_default_and_override(self, monkeypatch):
        from repro.sim.engine import resolve_field_batch

        monkeypatch.delenv("REPRO_FIELD_BATCH", raising=False)
        assert resolve_field_batch() == 64
        monkeypatch.setenv("REPRO_FIELD_BATCH", "8")
        assert resolve_field_batch() == 8
        assert resolve_field_batch(2) == 2

    def test_rejects_garbage(self, monkeypatch):
        from repro.sim.engine import resolve_field_batch

        monkeypatch.setenv("REPRO_FIELD_BATCH", "zero")
        with pytest.raises(ConfigurationError):
            resolve_field_batch()
        with pytest.raises(ConfigurationError):
            resolve_field_batch(0)


class TestDeceptionAdapter:
    def _adapter(self, **kwargs):
        from repro.sim.field import DeceptionAdapter

        d = paper_defaults()
        policy = scheme_policy("optimal", d.mdp)
        base = StatePolicyAdapter(policy, d.mdp, seed=1)
        return DeceptionAdapter(
            base, d.mdp, jam_width=d.mdp.jam_width, seed=2, **kwargs
        )

    def test_decoy_lands_in_a_different_block(self):
        from repro.jamming.jammer import block_index, channel_blocks

        adapter = self._adapter()
        d = paper_defaults()
        blocks = channel_blocks(d.mdp.num_channels, d.mdp.jam_width)
        for _ in range(50):
            channel, _ = adapter.decide(1)
            assert adapter.active_decoy is not None
            assert block_index(blocks, adapter.active_decoy) != block_index(
                blocks, channel
            )
            adapter.observe(1, channel, 0)

    def test_zero_rate_emits_no_decoys(self):
        adapter = self._adapter(decoy_rate=0.0)
        for _ in range(20):
            adapter.decide(1)
            assert adapter.active_decoy is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._adapter(decoy_rate=1.5)
        with pytest.raises(ConfigurationError):
            self._adapter(decoy_airtime_s=-0.1)

    def test_experiment_runs_against_reactive_jammer(self):
        from repro.jamming.jammer import ReactiveJammerConfig
        from repro.sim.field import DeceptionAdapter

        d = paper_defaults()
        jammer = field_jammer_config(
            d,
            adversary="reactive",
            reactive=ReactiveJammerConfig(duty_cycle=0.7, decoy_discrimination=0.25),
        )
        cfg = FieldConfig(mdp=d.mdp, jammer=jammer)
        policy = scheme_policy("optimal", d.mdp)
        base = StatePolicyAdapter(policy, d.mdp, seed=3)
        adapter = DeceptionAdapter(base, d.mdp, jam_width=d.mdp.jam_width, seed=4)
        result = FieldExperiment(cfg, adapter, seed=5).run_experiment(30)
        # The decoy airtime comes out of the data phase, so utilisation
        # stays strictly below an undefended slot's.
        assert 0.0 < result.utilization < 1.0
        assert result.goodput_pkts_per_slot > 0.0


class TestChannelTiers:
    def run_channel(self, channel, slots=120, seed=5):
        d = paper_defaults()
        cfg = FieldConfig(
            mdp=d.mdp, jammer=field_jammer_config(d), channel=channel
        )
        policy = scheme_policy("optimal", d.mdp, seed=seed)
        exp = FieldExperiment(
            cfg, StatePolicyAdapter(policy, d.mdp, seed=seed + 1), seed=seed + 2
        )
        return exp.run_experiment(slots)

    def test_analytic_default_bit_identical(self):
        # The tiered channel must not move a single draw on the default
        # path: tier resolution happens outside the experiment's streams.
        base = self.run_channel(None)
        explicit = self.run_channel("analytic")
        assert base.goodput_pkts_per_slot == explicit.goodput_pkts_per_slot
        assert base.metrics == explicit.metrics
        for mine, ref in zip(base.records, explicit.records):
            assert dataclasses.astuple(mine) == dataclasses.astuple(ref)

    def test_hybrid_reproducible_and_plausible(self):
        a = self.run_channel("hybrid")
        b = self.run_channel("hybrid")
        assert a.goodput_pkts_per_slot == b.goodput_pkts_per_slot
        assert a.metrics == b.metrics
        assert a.goodput_pkts_per_slot > 0

    def test_config_validates_tier(self):
        d = paper_defaults()
        with pytest.raises(ConfigurationError):
            FieldConfig(mdp=d.mdp, channel="exact")
