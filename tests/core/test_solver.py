"""Tests for the exact solvers and the paper's structural results (§III-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mdp import TJ, J, Action, AntiJammingMDP, MDPConfig
from repro.core.solver import (
    hop_q_profile,
    is_threshold_policy,
    stay_q_profile,
    value_iteration,
)
from repro.errors import SolverError
from tests.oracles.mdp import bellman_residual, policy_iteration


def solve(**kwargs):
    return value_iteration(AntiJammingMDP(MDPConfig(**kwargs)))


class TestValueIteration:
    def test_converges(self):
        sol = solve()
        assert sol.residual < 1e-9
        assert bellman_residual(sol) < 1e-6

    def test_contraction_theorem_iii1(self):
        # Theorem III.1 / Banach: successive VI sweeps contract by gamma, so
        # the iteration count is bounded by the geometric estimate.
        mdp = AntiJammingMDP()
        sol = value_iteration(mdp, tol=1e-8)
        gamma = mdp.config.discount
        # ||V_{k+1} - V_k|| <= gamma^k ||V_1 - V_0||; bound iterations.
        assert sol.iterations < np.log(1e-8 / 300) / np.log(gamma) + 10

    def test_values_negative(self):
        # All rewards are losses, so optimal values are negative.
        sol = solve()
        assert (sol.values < 0).all()

    def test_bad_tolerance(self):
        with pytest.raises(SolverError):
            value_iteration(AntiJammingMDP(), tol=0.0)

    def test_divergence_guard(self):
        with pytest.raises(SolverError):
            value_iteration(AntiJammingMDP(), tol=1e-12, max_iter=3)

    def test_policy_iteration_agrees(self):
        vi = solve(jammer_mode="random", loss_jam=70)
        pi = policy_iteration(AntiJammingMDP(MDPConfig(jammer_mode="random", loss_jam=70)))
        np.testing.assert_allclose(vi.values, pi.values, atol=1e-6)
        assert np.array_equal(vi.policy_indices, pi.policy_indices)

    @given(
        st.sampled_from(["max", "random"]),
        st.floats(min_value=0, max_value=200),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_solution_satisfies_bellman(self, mode, lj, lh):
        sol = value_iteration(
            AntiJammingMDP(MDPConfig(jammer_mode=mode, loss_jam=lj, loss_hop=lh))
        )
        assert bellman_residual(sol) < 1e-6


class TestLemmas:
    """Lemmas III.2 / III.3: monotone Q profiles over the streak states."""

    @pytest.mark.parametrize("mode", ["max", "random"])
    @pytest.mark.parametrize("power", [0, 5, 9])
    def test_lemma_iii2_stay_q_decreasing(self, mode, power):
        sol = solve(jammer_mode=mode, loss_jam=100)
        profile = stay_q_profile(sol, power)
        assert all(a > b for a, b in zip(profile, profile[1:])), profile

    @pytest.mark.parametrize("mode", ["max", "random"])
    @pytest.mark.parametrize("power", [0, 5, 9])
    def test_lemma_iii3_hop_q_increasing(self, mode, power):
        sol = solve(jammer_mode=mode, loss_jam=100)
        profile = hop_q_profile(sol, power)
        assert all(a < b for a, b in zip(profile, profile[1:])), profile

    def test_lemmas_hold_for_longer_sweep_cycles(self):
        for cycle in (5, 8, 12):
            sol = value_iteration(
                AntiJammingMDP(MDPConfig(sweep_cycle_override=cycle))
            )
            stay = stay_q_profile(sol, 0)
            hop = hop_q_profile(sol, 0)
            assert all(a > b for a, b in zip(stay, stay[1:]))
            assert all(a < b for a, b in zip(hop, hop[1:]))


class TestTheoremIII4:
    """The optimal policy is a threshold policy in the streak."""

    @given(
        st.sampled_from(["max", "random"]),
        st.floats(min_value=0, max_value=300),
        st.floats(min_value=0, max_value=150),
        st.integers(min_value=3, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_threshold_structure(self, mode, lj, lh, cycle):
        sol = value_iteration(
            AntiJammingMDP(
                MDPConfig(
                    jammer_mode=mode,
                    loss_jam=lj,
                    loss_hop=lh,
                    sweep_cycle_override=cycle,
                )
            )
        )
        assert is_threshold_policy(sol)

    def test_threshold_extremes(self):
        # Tiny L_J: never worth hopping -> n* = sweep cycle.
        lazy = solve(loss_jam=0.0)
        assert lazy.hop_threshold() == 4
        # Huge L_J, cheap hop: hop immediately -> n* = 1 or 2.
        eager = solve(loss_jam=500.0, loss_hop=1.0)
        assert eager.hop_threshold() <= 2


class TestTheoremIII5:
    """Threshold trends: n* falls with L_J, rises with L_H and sweep cycle."""

    def test_threshold_decreases_with_lj(self):
        thresholds = [
            solve(loss_jam=lj, loss_hop=50.0).hop_threshold()
            for lj in (10.0, 50.0, 150.0, 400.0)
        ]
        assert thresholds == sorted(thresholds, reverse=True)
        assert thresholds[0] > thresholds[-1]

    def test_threshold_increases_with_lh(self):
        thresholds = [
            solve(loss_jam=100.0, loss_hop=lh).hop_threshold()
            for lh in (1.0, 40.0, 120.0, 400.0)
        ]
        assert thresholds == sorted(thresholds)
        assert thresholds[-1] > thresholds[0]

    def test_threshold_increases_with_sweep_cycle(self):
        thresholds = [
            value_iteration(
                AntiJammingMDP(
                    MDPConfig(loss_jam=100.0, sweep_cycle_override=c)
                )
            ).hop_threshold()
            for c in (3, 6, 10, 14)
        ]
        assert thresholds == sorted(thresholds)
        assert thresholds[-1] > thresholds[0]


class TestSolutionAccessors:
    def test_action_lookup(self):
        sol = solve()
        a = sol.action(J)
        assert isinstance(a, Action)

    def test_q_and_value_consistent(self):
        sol = solve()
        for x in sol.mdp.states:
            best = max(sol.q_value(x, a) for a in sol.mdp.actions)
            assert sol.value(x) == pytest.approx(best, abs=1e-7)

    def test_policy_map_complete(self):
        sol = solve()
        pm = sol.policy_map()
        assert set(pm) == set(sol.mdp.states)

    def test_optimal_hops_out_of_jam_when_lj_high(self):
        sol = solve(loss_jam=100.0, jammer_mode="max")
        assert sol.action(J).hop
        assert sol.action(TJ).hop
