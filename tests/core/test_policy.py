"""Tests for policy abstractions."""

import pytest

from repro.core.mdp import TJ, J, Action, AntiJammingMDP
from repro.core.policy import TabularPolicy, ThresholdPolicy, policy_from_solution_map
from repro.core.solver import value_iteration
from repro.errors import ConfigurationError


class TestTabular:
    def test_lookup(self):
        pol = TabularPolicy({1: Action(False, 0), J: Action(True, 2)})
        assert pol.action(1) == Action(False, 0)
        assert pol.action(J).hop

    def test_missing_state(self):
        with pytest.raises(ConfigurationError):
            TabularPolicy({}).action(1)

    def test_from_solution(self):
        sol = value_iteration(AntiJammingMDP())
        pol = policy_from_solution_map(sol.policy_map())
        for x in sol.mdp.states:
            assert pol.action(x) == sol.action(x)


class TestThreshold:
    def test_structure(self):
        pol = ThresholdPolicy(threshold=3, stay_power_index=0, hop_power_index=2)
        assert not pol.action(1).hop
        assert not pol.action(2).hop
        assert pol.action(3).hop
        assert pol.action(TJ).hop and pol.action(J).hop

    def test_power_selection(self):
        pol = ThresholdPolicy(threshold=2, stay_power_index=1, hop_power_index=5)
        assert pol.action(1).power_index == 1
        assert pol.action(2).power_index == 5

    def test_hop_when_jammed_flag(self):
        pol = ThresholdPolicy(
            threshold=2, stay_power_index=0, hop_power_index=0, hop_when_jammed=False
        )
        assert not pol.action(J).hop

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdPolicy(threshold=0, stay_power_index=0, hop_power_index=0)
