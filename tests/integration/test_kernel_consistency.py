"""Mechanistic environment vs the paper's analytic transition kernel.

The MDP kernel (Eqs. 6-14) abstracts the sweep-without-replacement
mechanics. These tests measure empirical transition frequencies of
:class:`~repro.core.envs.SweepJammingEnv` and compare them against the
kernel — exactly where they should agree, and directionally where the
kernel idealises (see DESIGN.md).
"""

import numpy as np
import pytest

from repro.core.envs import SweepJammingEnv
from repro.core.mdp import TJ, J, Action, AntiJammingMDP, MDPConfig
from repro.core.metrics import evaluate_policy
from repro.core.policy import ThresholdPolicy, policy_from_solution_map
from repro.core.solver import value_iteration
from tests.oracles.mdp import AnalyticJammingEnv


class TestFirstSweepAgreement:
    """During the first sweep cycle the mechanics match the kernel exactly."""

    def test_streak_survival_curve(self):
        # For a staying victim, P(survive first n slots) = (S-n)/S under
        # both the kernel and the sweep-without-replacement mechanics.
        cfg = MDPConfig(jammer_mode="max")
        s = cfg.sweep_cycle
        trials = 3000
        env = SweepJammingEnv(cfg, seed=0)
        survival = np.zeros(s + 1)
        for _ in range(trials):
            env.reset()
            for n in range(1, s + 1):
                _, _, info = env.step_action(Action(False, 0))
                if info.jam_attempted:
                    break
                survival[n] += 1
        empirical = survival[1:s] / trials
        expected = [(s - n) / s for n in range(1, s)]
        np.testing.assert_allclose(empirical, expected, atol=0.04)

    def test_case6_hop_from_jammed_escape_probability(self):
        # Eq. (14) idealises a hop out of a jammed channel as always
        # escaping. Mechanistically the victim hops to one of K-1 = 15
        # other channels, m-1 = 3 of which sit inside the jammer's camped
        # block — so the true escape probability is 1 - 3/15 = 0.8. This
        # is the kernel's main idealisation (documented in DESIGN.md).
        cfg = MDPConfig(jammer_mode="max")
        env = SweepJammingEnv(cfg, seed=1)
        escapes = 0
        hops = 0
        for _ in range(4000):
            _, _, info = env.step_action(Action(False, 0))
            if info.state == J:
                _, _, info2 = env.step_action(Action(True, 0))
                hops += 1
                escapes += not info2.jam_attempted
        assert hops > 100
        expected = 1.0 - (cfg.jam_width - 1) / (cfg.num_channels - 1)
        assert escapes / hops == pytest.approx(expected, abs=0.05)

    def test_camping_matches_case5(self):
        # Eqs. (12)-(13): staying on a jammed channel keeps the outcome
        # distribution fixed at P(p^T >= p^J).
        cfg = MDPConfig(jammer_mode="random")
        env = SweepJammingEnv(cfg, seed=2)
        tj = j = 0
        for _ in range(6000):
            _, _, info = env.step_action(Action(False, 9))  # top power: 15
            if info.state == TJ:
                tj += 1
            elif info.state == J:
                j += 1
        # P(survive) = P(jammer level <= 15) = 5/10.
        assert tj / (tj + j) == pytest.approx(0.5, abs=0.05)


class TestPolicyValueAgreement:
    """The exact optimum scores similarly on both environments."""

    @pytest.mark.parametrize("mode", ["max", "random"])
    def test_success_rates_close(self, mode):
        cfg = MDPConfig(jammer_mode=mode)
        policy = policy_from_solution_map(
            value_iteration(AntiJammingMDP(cfg)).policy_map()
        )
        analytic = evaluate_policy(
            AnalyticJammingEnv(AntiJammingMDP(cfg), seed=3), policy, slots=12_000
        )
        mechanistic = evaluate_policy(
            SweepJammingEnv(cfg, seed=4), policy, slots=12_000
        )
        # The kernel idealises post-hop bookkeeping, so allow a few points.
        assert abs(
            analytic.success_rate - mechanistic.success_rate
        ) < 0.08

    def test_threshold_policies_rank_identically(self):
        # Ranking of threshold choices transfers between environments.
        cfg = MDPConfig(jammer_mode="max")

        def score(env_cls, threshold, seed):
            policy = ThresholdPolicy(
                threshold=threshold,
                stay_power_index=0,
                hop_power_index=0,
                hop_when_jammed=threshold <= 3,
            )
            if env_cls is AnalyticJammingEnv:
                env = AnalyticJammingEnv(AntiJammingMDP(cfg), seed=seed)
            else:
                env = SweepJammingEnv(cfg, seed=seed)
            return evaluate_policy(env, policy, slots=8000).success_rate

        # Hop-never (threshold beyond the cycle) is catastrophic everywhere;
        # hopping at the terminal streak is good everywhere.
        for env_cls in (AnalyticJammingEnv, SweepJammingEnv):
            never = score(env_cls, 99, seed=5)
            always = score(env_cls, 3, seed=6)
            assert always > never + 0.5
