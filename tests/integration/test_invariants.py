"""Cross-cutting property tests: invariants that must hold system-wide."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.link import Interferer, JammerSignalType, LinkBudget
from repro.core.envs import SweepJammingEnv
from repro.core.mdp import TJ, J, Action, AntiJammingMDP, MDPConfig
from repro.core.metrics import SlotLog
from repro.core.solver import value_iteration
from repro.net.energy import EnergyModel
from repro.phy.emulation import WaveformEmulator
from tests.oracles.mdp import AnalyticJammingEnv

mdp_configs = st.builds(
    MDPConfig,
    loss_jam=st.floats(0, 300),
    loss_hop=st.floats(0, 150),
    jammer_mode=st.sampled_from(["max", "random"]),
    sweep_cycle_override=st.one_of(st.none(), st.integers(2, 12)),
)


class TestValueInvariants:
    @given(mdp_configs)
    @settings(max_examples=20, deadline=None)
    def test_optimal_values_bounded_by_loss_extremes(self, cfg):
        # V* lies between the best-case (min power forever) and worst-case
        # (max everything forever) discounted loss streams.
        mdp = AntiJammingMDP(cfg)
        sol = value_iteration(mdp)
        gamma = cfg.discount
        per_slot_best = -cfg.tx_power_levels[0]
        per_slot_worst = -(
            cfg.tx_power_levels[-1] + cfg.loss_hop + cfg.loss_jam
        )
        lower = per_slot_worst / (1 - gamma) - 1e-6
        upper = per_slot_best / (1 - gamma) + 1e-6
        assert (sol.values >= lower).all()
        assert (sol.values <= upper).all()

    @given(mdp_configs)
    @settings(max_examples=15, deadline=None)
    def test_jammed_state_never_better_than_survived(self, cfg):
        # Being in J can never be strictly better than being in TJ: the
        # states share dynamics, J just cost more getting in.
        sol = value_iteration(AntiJammingMDP(cfg))
        assert sol.value(J) <= sol.value(TJ) + 1e-9


class TestEnvironmentInvariants:
    @given(st.integers(0, 10_000), st.sampled_from(["max", "random"]))
    @settings(max_examples=12, deadline=None)
    def test_reward_decomposition(self, seed, mode):
        cfg = MDPConfig(jammer_mode=mode)
        env = SweepJammingEnv(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(80):
            action = Action(
                hop=bool(rng.integers(2)), power_index=int(rng.integers(10))
            )
            _, reward, info = env.step_action(action)
            expected = -cfg.tx_power_levels[info.power_index]
            if info.hopped:
                expected -= cfg.loss_hop
            if not info.success:
                expected -= cfg.loss_jam
            assert reward == pytest.approx(expected)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_info_flags_mutually_consistent(self, seed):
        env = SweepJammingEnv(MDPConfig(jammer_mode="random"), seed=seed)
        rng = np.random.default_rng(seed + 1)
        for _ in range(120):
            _, _, info = env.step_action(
                Action(hop=bool(rng.integers(2)), power_index=int(rng.integers(10)))
            )
            if info.jam_defeated:
                assert info.jam_attempted and info.state == TJ
            if info.state == J:
                assert info.jam_attempted and not info.success
            if not info.jam_attempted:
                assert info.success
            assert info.power_raised == (info.power_index > 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_analytic_env_states_always_in_space(self, seed):
        env = AnalyticJammingEnv(seed=seed)
        rng = np.random.default_rng(seed + 2)
        for _ in range(100):
            state, _, _ = env.step(
                Action(hop=bool(rng.integers(2)), power_index=int(rng.integers(10)))
            )
            assert state in env.mdp.states


class TestMetricInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_rates_in_unit_interval(self, seed):
        env = SweepJammingEnv(MDPConfig(jammer_mode="random"), seed=seed)
        log = SlotLog()
        rng = np.random.default_rng(seed)
        for _ in range(200):
            _, _, info = env.step_action(
                Action(hop=bool(rng.integers(2)), power_index=int(rng.integers(10)))
            )
            log.record(info)
        s = log.summary()
        for value in (
            s.success_rate,
            s.fh_adoption_rate,
            s.fh_success_rate,
            s.pc_adoption_rate,
            s.pc_success_rate,
            s.jam_attempt_rate,
        ):
            assert 0.0 <= value <= 1.0


class TestChannelInvariants:
    @given(
        st.floats(-90, -20),
        st.floats(-90, -20),
        st.sampled_from(list(JammerSignalType)),
    )
    @settings(max_examples=30, deadline=None)
    def test_per_monotone_in_interference(self, signal_dbm, jam_dbm, sig):
        budget = LinkBudget()
        weak = budget.packet_error_rate(
            signal_dbm, 60, [Interferer(jam_dbm - 6.0, sig)]
        )
        strong = budget.packet_error_rate(
            signal_dbm, 60, [Interferer(jam_dbm, sig)]
        )
        assert strong >= weak - 1e-9

    @given(st.floats(-90, -20), st.sampled_from(list(JammerSignalType)))
    @settings(max_examples=30, deadline=None)
    def test_per_monotone_in_signal(self, jam_dbm, sig):
        budget = LinkBudget()
        itf = [Interferer(jam_dbm, sig)]
        low = budget.packet_error_rate(-80.0, 60, itf)
        high = budget.packet_error_rate(-40.0, 60, itf)
        assert high <= low + 1e-9


class TestEnergyInvariants:
    @given(st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=30)
    def test_energy_monotone_in_power_level(self, a, b):
        m = EnergyModel()
        lo, hi = sorted((a, b))
        assert m.slot_energy_mj(lo, False) <= m.slot_energy_mj(hi, False)


class TestEmulationInvariants:
    @given(st.binary(min_size=2, max_size=4))
    @settings(max_examples=6, deadline=None)
    def test_emulation_always_within_dsss_budget(self, payload):
        emulator = WaveformEmulator()
        result = emulator.emulate_bytes(payload)
        assert result.chip_error_rate is not None
        assert result.chip_error_rate < 0.35
        assert result.alpha > 0
        assert result.designed.size == result.emulated.size
