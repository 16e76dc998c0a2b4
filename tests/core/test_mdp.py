"""Tests for the anti-jamming MDP: state/action spaces, rewards, kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mdp import TJ, J, Action, AntiJammingMDP, JammerMode, MDPConfig
from repro.errors import ConfigurationError

configs = st.builds(
    MDPConfig,
    num_channels=st.sampled_from([8, 16, 32]),
    jam_width=st.sampled_from([1, 2, 4]),
    jammer_mode=st.sampled_from(["max", "random"]),
    loss_hop=st.floats(0, 100),
    loss_jam=st.floats(0, 200),
)


class TestConfig:
    def test_default_sweep_cycle(self):
        assert MDPConfig().sweep_cycle == 4

    def test_sweep_cycle_is_ceiling(self):
        assert MDPConfig(num_channels=16, jam_width=5).sweep_cycle == 4
        assert MDPConfig(num_channels=16, jam_width=3).sweep_cycle == 6

    def test_override(self):
        cfg = MDPConfig(sweep_cycle_override=9)
        assert cfg.sweep_cycle == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MDPConfig(num_channels=1)
        with pytest.raises(ConfigurationError):
            MDPConfig(jam_width=0)
        with pytest.raises(ConfigurationError):
            MDPConfig(tx_power_levels=())
        with pytest.raises(ConfigurationError):
            MDPConfig(tx_power_levels=(10, 5))
        with pytest.raises(ConfigurationError):
            MDPConfig(loss_hop=-1)
        with pytest.raises(ConfigurationError):
            MDPConfig(jammer_mode="stealth")
        with pytest.raises(ConfigurationError):
            MDPConfig(discount=1.0)
        with pytest.raises(ConfigurationError):
            MDPConfig(sweep_cycle_override=1)

    def test_sweep_cycle_one_rejected_by_mdp(self):
        with pytest.raises(ConfigurationError):
            AntiJammingMDP(MDPConfig(num_channels=16, jam_width=16))


class TestJamSuccessProbability:
    def test_max_mode_always_wins_below_top(self):
        cfg = MDPConfig(jammer_mode=JammerMode.MAX)
        # Jammer top level is 20; every victim level 6..15 loses.
        for i in range(cfg.num_power_levels):
            assert cfg.jam_success_probability(i) == 1.0

    def test_max_mode_tie_survives(self):
        cfg = MDPConfig(
            tx_power_levels=tuple(range(11, 21)),
            jammer_mode=JammerMode.MAX,
        )
        # Victim's top level 20 equals the jammer's top level: survives.
        assert cfg.jam_success_probability(cfg.num_power_levels - 1) == 0.0

    def test_random_mode_counts_wins(self):
        cfg = MDPConfig(jammer_mode=JammerMode.RANDOM)
        # Victim level 15 (index 9): jammer wins with 16..20 -> 5/10.
        assert cfg.jam_success_probability(9) == 0.5
        # Victim level 6 (index 0): all ten jammer levels exceed it.
        assert cfg.jam_success_probability(0) == 1.0

    def test_random_mode_monotone_in_power(self):
        cfg = MDPConfig(jammer_mode=JammerMode.RANDOM)
        probs = [cfg.jam_success_probability(i) for i in range(10)]
        assert probs == sorted(probs, reverse=True)


class TestSpaces:
    def test_state_space_matches_eq3(self):
        mdp = AntiJammingMDP()
        assert mdp.states == (1, 2, 3, TJ, J)

    def test_action_space_matches_eq4(self):
        mdp = AntiJammingMDP()
        assert mdp.num_actions == 20
        hops = [a.hop for a in mdp.actions]
        assert hops.count(True) == 10 and hops.count(False) == 10

    def test_indexing_roundtrip(self):
        mdp = AntiJammingMDP()
        for x in mdp.states:
            assert mdp.states[mdp.state_index(x)] == x
        for a in mdp.actions:
            assert mdp.actions[mdp.action_index(a)] == a

    def test_unknown_state(self):
        with pytest.raises(ConfigurationError):
            AntiJammingMDP().state_index(99)


class TestRewards:
    def test_eq5_all_four_cases(self):
        mdp = AntiJammingMDP()
        cfg = mdp.config
        p0 = cfg.tx_power_levels[0]
        stay = Action(hop=False, power_index=0)
        hop = Action(hop=True, power_index=0)
        assert mdp.reward(1, stay, J) == -(p0 + cfg.loss_jam)
        assert mdp.reward(1, stay, 2) == -p0
        assert mdp.reward(1, hop, J) == -(p0 + cfg.loss_jam + cfg.loss_hop)
        assert mdp.reward(1, hop, 1) == -(p0 + cfg.loss_hop)

    def test_power_term_scales(self):
        mdp = AntiJammingMDP()
        lo = mdp.reward(1, Action(False, 0), 2)
        hi = mdp.reward(1, Action(False, 9), 2)
        assert hi < lo

    def test_expected_reward_eq23(self):
        # E[U(n, (s, p))] = -L_p - L_J * P(jam) / (S - n)  (paper Eq. 23).
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="max"))
        cfg = mdp.config
        s = cfg.sweep_cycle
        for n in mdp.streak_states:
            a = Action(hop=False, power_index=0)
            expected = -cfg.tx_power_levels[0] - cfg.loss_jam * 1.0 / (s - n)
            assert mdp.expected_reward(n, a) == pytest.approx(expected)

    def test_expected_reward_eq24(self):
        # E[U(n, (h, p))] = -L_p - L_H - L_J * P(jam) (S-n-1)/((S-1)(S-n)).
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="max"))
        cfg = mdp.config
        s = cfg.sweep_cycle
        for n in mdp.streak_states:
            a = Action(hop=True, power_index=0)
            q = (s - n - 1) / ((s - 1) * (s - n))
            expected = -cfg.tx_power_levels[0] - cfg.loss_hop - cfg.loss_jam * q
            assert mdp.expected_reward(n, a) == pytest.approx(expected)


class TestKernel:
    @given(configs)
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, cfg):
        mdp = AntiJammingMDP(cfg)
        for x in mdp.states:
            for a in mdp.actions:
                assert math.isclose(
                    sum(mdp.transitions(x, a).values()), 1.0, abs_tol=1e-9
                )

    @given(configs)
    @settings(max_examples=30, deadline=None)
    def test_kernel_matrix_stochastic(self, cfg):
        mdp = AntiJammingMDP(cfg)
        P = mdp.kernel_matrix()
        assert P.min() >= 0
        np.testing.assert_allclose(P.sum(axis=2), 1.0, atol=1e-9)

    def test_case1_streak_grows(self):
        mdp = AntiJammingMDP()
        dist = mdp.transitions(1, Action(False, 0))
        # 1 - 1/(4 - 1) = 2/3 chance of reaching streak 2.
        assert dist[2] == pytest.approx(2 / 3)

    def test_case2_terminal_streak_always_attacked(self):
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="max"))
        dist = mdp.transitions(3, Action(False, 0))
        # At n = S-1 the sweep must find the victim: 1/(4-3) = 1.
        assert dist == {J: pytest.approx(1.0)}

    def test_case2_splits_by_power(self):
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="random"))
        dist = mdp.transitions(3, Action(False, 9))  # level 15: survives 1/2
        assert dist[TJ] == pytest.approx(0.5)
        assert dist[J] == pytest.approx(0.5)

    def test_case3_hop_escape_probability(self):
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="max"))
        dist = mdp.transitions(1, Action(True, 0))
        q = (4 - 1 - 1) / ((4 - 1) * (4 - 1))  # = 2/9
        assert dist[1] == pytest.approx(1 - q)
        assert dist[J] == pytest.approx(q)

    def test_case4_hop_at_terminal_streak_is_safe(self):
        # (S - n - 1) = 0 at n = S-1: hopping always escapes.
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="max"))
        dist = mdp.transitions(3, Action(True, 0))
        assert dist == {1: pytest.approx(1.0)}

    def test_case5_camping_jammer(self):
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="max"))
        for x in (TJ, J):
            dist = mdp.transitions(x, Action(False, 0))
            assert dist == {J: pytest.approx(1.0)}

    def test_case5_random_mode(self):
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="random"))
        dist = mdp.transitions(J, Action(False, 9))
        assert dist[TJ] == pytest.approx(0.5)

    def test_case6_hop_from_jammed_always_escapes(self):
        mdp = AntiJammingMDP()
        for x in (TJ, J):
            for p in (0, 9):
                assert mdp.transitions(x, Action(True, p)) == {1: pytest.approx(1.0)}

    def test_invalid_streak_rejected(self):
        mdp = AntiJammingMDP()
        with pytest.raises(ConfigurationError):
            mdp.transitions(7, Action(False, 0))

    def test_describe(self):
        text = AntiJammingMDP().describe()
        assert "sweep_cycle=4" in text and "K=16" in text
