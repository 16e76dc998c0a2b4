"""Tests for the Table-I metrics and the baseline policies."""

import pytest

from repro.core.baselines import NoDefensePolicy, PassiveFHPolicy, RandomFHPolicy
from repro.core.envs import StepInfo, SweepJammingEnv
from repro.core.mdp import TJ, J, MDPConfig
from repro.core.metrics import SlotLog, evaluate_policy
from repro.core.policy import ThresholdPolicy
from repro.errors import ConfigurationError, SimulationError


def max_power_policy(cfg):
    """Never hop and always transmit at the top power level."""
    top = cfg.num_power_levels - 1
    return ThresholdPolicy(
        threshold=cfg.sweep_cycle,
        stay_power_index=top,
        hop_power_index=top,
        hop_when_jammed=False,
    )


def info(**kw):
    defaults = dict(
        state=1,
        success=True,
        hopped=False,
        power_index=0,
        power_raised=False,
        jam_attempted=False,
        jam_defeated=False,
        avoided_jam=False,
        reward=-6.0,
    )
    defaults.update(kw)
    return StepInfo(**defaults)


class TestSlotLog:
    def test_empty_summary_rejected(self):
        with pytest.raises(SimulationError):
            SlotLog().summary()

    def test_success_rate(self):
        log = SlotLog()
        log.extend(
            [info(success=True), info(success=True), info(success=False, state=J)]
        )
        assert log.summary().success_rate == pytest.approx(2 / 3)

    def test_fh_metrics(self):
        log = SlotLog()
        log.extend(
            [
                info(hopped=True, avoided_jam=True),
                info(hopped=True, avoided_jam=False),
                info(hopped=False),
                info(hopped=False),
            ]
        )
        s = log.summary()
        assert s.fh_adoption_rate == 0.5
        assert s.fh_success_rate == 0.5

    def test_pc_metrics(self):
        log = SlotLog()
        log.extend(
            [
                info(
                    power_raised=True, jam_defeated=True, jam_attempted=True, state=TJ
                ),
                info(power_raised=True),
                info(power_raised=False),
            ]
        )
        s = log.summary()
        assert s.pc_adoption_rate == pytest.approx(2 / 3)
        assert s.pc_success_rate == pytest.approx(0.5)

    def test_zero_adoption_rates_defined(self):
        log = SlotLog()
        log.record(info())
        s = log.summary()
        assert s.fh_success_rate == 0.0
        assert s.pc_success_rate == 0.0

    def test_mean_reward(self):
        log = SlotLog()
        log.extend([info(reward=-10.0), info(reward=-20.0)])
        assert log.summary().mean_reward == -15.0

    def test_history_flag(self):
        log = SlotLog(keep_history=True)
        log.record(info())
        assert len(log.history) == 1
        with pytest.raises(SimulationError):
            SlotLog().history

    def test_as_dict_keys(self):
        log = SlotLog()
        log.record(info())
        d = log.summary().as_dict()
        assert {"S_T", "A_H", "S_H", "A_P", "S_P"} <= set(d)


class TestSlotLogEdgeCases:
    def test_extend_with_empty_list_still_rejected(self):
        log = SlotLog()
        log.extend([])
        with pytest.raises(SimulationError):
            log.summary()

    def test_all_hops_without_avoided_jam_gives_zero_sh(self):
        # Every slot hopped preventatively: A_H == 1 but S_H must be 0,
        # not a division error or NaN.
        log = SlotLog()
        log.extend([info(hopped=True, avoided_jam=False)] * 4)
        s = log.summary()
        assert s.fh_adoption_rate == 1.0
        assert s.fh_success_rate == 0.0

    def test_all_pc_without_defeats_gives_zero_sp(self):
        log = SlotLog()
        log.extend([info(power_raised=True, jam_defeated=False)] * 4)
        s = log.summary()
        assert s.pc_adoption_rate == 1.0
        assert s.pc_success_rate == 0.0

    def test_jam_attempt_rate(self):
        log = SlotLog()
        log.extend([info(jam_attempted=True), info(), info(), info()])
        assert log.summary().jam_attempt_rate == 0.25

    def test_history_not_kept_by_default(self):
        log = SlotLog()
        log.record(info())
        assert log._history == []  # no silent memory growth

    def test_history_returns_a_copy(self):
        log = SlotLog(keep_history=True)
        log.record(info())
        snapshot = log.history
        snapshot.clear()
        assert len(log.history) == 1

    def test_summary_is_idempotent(self):
        log = SlotLog()
        log.extend([info(success=True), info(success=False, state=J)])
        assert log.summary() == log.summary()


class TestEvaluatePolicy:
    def test_slot_count_respected(self):
        cfg = MDPConfig()
        env = SweepJammingEnv(cfg, seed=0)
        m = evaluate_policy(env, NoDefensePolicy(), slots=500)
        assert m.slots == 500

    def test_invalid_slots(self):
        env = SweepJammingEnv(MDPConfig(), seed=0)
        with pytest.raises(SimulationError):
            evaluate_policy(env, NoDefensePolicy(), slots=0)


class TestBaselineBehaviour:
    def test_no_defense_is_eventually_always_jammed(self):
        env = SweepJammingEnv(MDPConfig(jammer_mode="max"), seed=1)
        m = evaluate_policy(env, NoDefensePolicy(), slots=5000)
        assert m.success_rate < 0.01
        assert m.fh_adoption_rate == 0.0

    def test_passive_reacts_after_threshold(self):
        cfg = MDPConfig(jammer_mode="max")
        policy = PassiveFHPolicy(cfg, react_after=2)
        # Feed states directly: hop only on the 2nd consecutive J.
        assert not policy.action(J).hop
        assert policy.action(J).hop
        assert not policy.action(J).hop  # counter reset after the hop

    def test_passive_counter_resets_on_success(self):
        cfg = MDPConfig()
        policy = PassiveFHPolicy(cfg, react_after=2)
        assert not policy.action(J).hop
        assert not policy.action(1).hop
        assert not policy.action(J).hop  # count restarted

    def test_passive_validation(self):
        with pytest.raises(ConfigurationError):
            PassiveFHPolicy(MDPConfig(), react_after=0)

    def test_passive_beats_no_defense(self):
        cfg = MDPConfig(jammer_mode="max")
        env = SweepJammingEnv(cfg, seed=2)
        passive = evaluate_policy(env, PassiveFHPolicy(cfg), slots=10_000)
        env2 = SweepJammingEnv(cfg, seed=2)
        none = evaluate_policy(env2, NoDefensePolicy(), slots=10_000)
        assert passive.success_rate > none.success_rate + 0.2

    def test_random_fh_hop_rate_matches_probability(self):
        cfg = MDPConfig()
        env = SweepJammingEnv(cfg, seed=3)
        m = evaluate_policy(env, RandomFHPolicy(cfg, seed=4), slots=10_000)
        assert m.fh_adoption_rate == pytest.approx(0.5, abs=0.02)

    def test_random_fh_validation(self):
        with pytest.raises(ConfigurationError):
            RandomFHPolicy(MDPConfig(), hop_probability=1.5)

    def test_max_power_policy_beats_random_jammer_half_the_time(self):
        cfg = MDPConfig(jammer_mode="random")
        env = SweepJammingEnv(cfg, seed=5)
        m = evaluate_policy(env, max_power_policy(cfg), slots=10_000)
        # Camping jammer attacks nearly every slot; top power survives ~1/2.
        assert 0.35 < m.success_rate < 0.65
        assert m.pc_adoption_rate == 1.0

    def test_max_power_policy_useless_against_max_jammer(self):
        cfg = MDPConfig(jammer_mode="max")
        env = SweepJammingEnv(cfg, seed=6)
        m = evaluate_policy(env, max_power_policy(cfg), slots=5000)
        assert m.success_rate < 0.01
