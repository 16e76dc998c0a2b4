"""Tests for the energy model (paper §IV-C-2)."""

import pytest

from repro.core.baselines import NoDefensePolicy
from repro.core.envs import StepInfo, SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.core.metrics import SlotLog
from repro.core.policy import ThresholdPolicy
from repro.errors import ConfigurationError
from repro.net.energy import (
    DEFAULT_LEVEL_POWERS_MW,
    EnergyModel,
    energy_of_run,
)


def max_power_policy(cfg):
    """Never hop and always transmit at the top power level."""
    top = cfg.num_power_levels - 1
    return ThresholdPolicy(
        threshold=cfg.sweep_cycle,
        stay_power_index=top,
        hop_power_index=top,
        hop_when_jammed=False,
    )


def info(power_index=0, hopped=False, success=True):
    return StepInfo(
        state=1,
        success=success,
        hopped=hopped,
        power_index=power_index,
        power_raised=power_index > 0,
        jam_attempted=False,
        jam_defeated=False,
        avoided_jam=False,
        reward=-6.0,
    )


class TestModel:
    def test_defaults_span_1_to_10_mw(self):
        assert DEFAULT_LEVEL_POWERS_MW[0] == pytest.approx(1.0)
        assert DEFAULT_LEVEL_POWERS_MW[-1] == pytest.approx(10.0)

    def test_higher_level_costs_more(self):
        m = EnergyModel()
        assert m.slot_energy_mj(9, False) > m.slot_energy_mj(0, False)

    def test_hop_adds_overhead(self):
        m = EnergyModel()
        assert m.slot_energy_mj(0, True) > m.slot_energy_mj(0, False)

    def test_known_value(self):
        m = EnergyModel(
            level_powers_mw=(2.0,),
            tx_duty_cycle=0.5,
            idle_power_mw=4.0,
            hop_overhead_s=0.0,
            slot_duration_s=2.0,
        )
        # 2 mW * 1 s + 4 mW * 2 s = 10 mJ.
        assert m.slot_energy_mj(0, False) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(level_powers_mw=())
        with pytest.raises(ConfigurationError):
            EnergyModel(level_powers_mw=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            EnergyModel(tx_duty_cycle=0.0)
        with pytest.raises(ConfigurationError):
            EnergyModel(slot_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            EnergyModel().slot_energy_mj(10, False)


class TestReport:
    def test_run_accounting(self):
        history = [info(0), info(9), info(0, hopped=True)]
        report = energy_of_run(history)
        assert report.slots == 3
        assert report.total_mj > 0
        assert report.mean_mj_per_slot == pytest.approx(report.total_mj / 3)

    def test_efficiency_metric(self):
        history = [info(0, success=True), info(0, success=False)]
        report = energy_of_run(history)
        assert report.mj_per_successful_slot == pytest.approx(report.total_mj)

    def test_all_failures_infinite_cost(self):
        report = energy_of_run([info(0, success=False)])
        assert report.mj_per_successful_slot == float("inf")

    def test_lifetime_decreases_with_burn(self):
        lazy = energy_of_run([info(0)] * 10)
        greedy = energy_of_run([info(9, hopped=True)] * 10)
        assert lazy.lifetime_days() > greedy.lifetime_days()

    def test_lifetime_validation(self):
        report = energy_of_run([info(0)])
        with pytest.raises(ConfigurationError):
            report.lifetime_days(battery_mah=0.0)

    def test_empty_history(self):
        with pytest.raises(ConfigurationError):
            energy_of_run([])


class TestPolicyEnergy:
    """§IV-C-2: power-control behaviour drives consumption."""

    def run_policy(self, policy, mode, slots=3000):
        cfg = MDPConfig(jammer_mode=mode)
        env = SweepJammingEnv(cfg, seed=0)
        log = SlotLog(keep_history=True)
        for _ in range(slots):
            _, _, step = env.step_action(policy.action(env.state))
            log.record(step)
        return energy_of_run(log.history)

    def test_max_power_burns_most(self):
        cfg = MDPConfig(jammer_mode="random")
        frugal = self.run_policy(NoDefensePolicy(), "random")
        greedy = self.run_policy(max_power_policy(cfg), "random")
        assert greedy.mean_mj_per_slot > frugal.mean_mj_per_slot * 1.3

    def test_efficiency_favours_effective_defence(self):
        # Max power against the random jammer wastes energy but delivers
        # slots; doing nothing is cheap but delivers (nearly) none — the
        # per-successful-slot metric must prefer the defence.
        cfg = MDPConfig(jammer_mode="random")
        greedy = self.run_policy(max_power_policy(cfg), "random")
        frugal = self.run_policy(NoDefensePolicy(), "random")
        assert greedy.mj_per_successful_slot < frugal.mj_per_successful_slot
