"""Tests for both environments, including kernel-consistency checks."""

import numpy as np
import pytest

from repro.core.envs import (
    SweepJammingEnv,
    history_row,
    history_rows,
)
from repro.core.mdp import TJ, J, Action, AntiJammingMDP, MDPConfig, code_state
from repro.errors import ConfigurationError, SimulationError
from tests.oracles.mdp import AnalyticJammingEnv


class TestAnalyticEnv:
    def test_reset_starts_fresh(self):
        env = AnalyticJammingEnv(seed=0)
        assert env.reset() == 1

    def test_step_returns_kernel_states(self):
        env = AnalyticJammingEnv(seed=0)
        mdp = env.mdp
        for _ in range(200):
            a = Action(hop=bool(np.random.default_rng(0).integers(2)), power_index=0)
            state, reward, info = env.step(a)
            assert state in mdp.states
            assert info.state == state
            assert isinstance(reward, float)

    def test_empirical_frequencies_match_kernel(self):
        # From streak 1 with (stay, p0) the kernel gives 2/3 -> streak 2 and
        # 1/3 -> J (max-power jammer always wins).
        mdp = AntiJammingMDP(MDPConfig(jammer_mode="max"))
        env = AnalyticJammingEnv(mdp, seed=42)
        a = Action(hop=False, power_index=0)
        outcomes = {2: 0, J: 0}
        n = 6000
        for _ in range(n):
            env.state = 1
            nxt, _, _ = env.step(a)
            outcomes[nxt] += 1
        assert outcomes[2] / n == pytest.approx(2 / 3, abs=0.03)
        assert outcomes[J] / n == pytest.approx(1 / 3, abs=0.03)

    def test_hop_from_jammed_always_escapes(self):
        env = AnalyticJammingEnv(seed=1)
        a = Action(hop=True, power_index=0)
        for _ in range(100):
            env.state = J
            nxt, _, info = env.step(a)
            assert nxt == 1 and info.success

    def test_reward_matches_mdp(self):
        env = AnalyticJammingEnv(seed=2)
        mdp = env.mdp
        for _ in range(100):
            prev = env.state
            a = Action(hop=False, power_index=3)
            nxt, reward, _ = env.step(a)
            assert reward == mdp.reward(prev, a, nxt)

    def test_seeded_reproducibility(self):
        def run(seed):
            env = AnalyticJammingEnv(seed=seed)
            return [env.step(Action(False, 0))[0] for _ in range(30)]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_info_flags_consistent(self):
        env = AnalyticJammingEnv(seed=3)
        for i in range(300):
            a = Action(hop=i % 3 == 0, power_index=i % 10)
            _, _, info = env.step(a)
            assert info.success == (info.state != J)
            assert info.jam_attempted == (info.state in (TJ, J))
            if info.jam_defeated:
                assert info.state == TJ
            if info.avoided_jam:
                assert info.hopped and info.success


class TestSweepEnv:
    def test_geometry(self):
        env = SweepJammingEnv(seed=0)
        assert env.num_actions == 160
        assert env.observation_size == 15
        assert env.reset().shape == (15,)

    def test_action_index_roundtrip(self):
        env = SweepJammingEnv(seed=0)
        for idx in (0, 37, 159):
            ch, p = env.action_to_channel_power(idx)
            assert env.channel_power_to_action(ch, p) == idx

    def test_action_index_bounds(self):
        env = SweepJammingEnv(seed=0)
        with pytest.raises(SimulationError):
            env.action_to_channel_power(160)
        with pytest.raises(SimulationError):
            env.channel_power_to_action(16, 0)
        with pytest.raises(SimulationError):
            env.channel_power_to_action(0, 10)

    def test_history_length_validation(self):
        with pytest.raises(ConfigurationError):
            SweepJammingEnv(history_length=0)

    def test_observation_in_unit_range(self):
        env = SweepJammingEnv(seed=1)
        obs = env.reset()
        rng = np.random.default_rng(0)
        for _ in range(300):
            obs, _, _ = env.step_index(int(rng.integers(160)))
            assert obs.min() >= 0.0 and obs.max() <= 1.0

    def test_stay_action_keeps_channel(self):
        env = SweepJammingEnv(seed=2)
        ch = env.channel
        _, _, info = env.step_index(env.channel_power_to_action(ch, 0))
        assert not info.hopped and info.channel == ch

    def test_explicit_hop_changes_channel(self):
        env = SweepJammingEnv(seed=3)
        ch = env.channel
        target = (ch + 5) % 16
        _, _, info = env.step_index(env.channel_power_to_action(target, 0))
        assert info.hopped and info.channel == target

    def test_abstract_hop_draws_other_channel(self):
        env = SweepJammingEnv(seed=4)
        for _ in range(50):
            before = env.channel
            _, _, info = env.step_action(Action(hop=True, power_index=0))
            assert info.channel != before

    def test_camping_jammer_pins_victim(self):
        # Stay forever against a max-power jammer: once found, jammed in
        # every subsequent slot.
        env = SweepJammingEnv(MDPConfig(jammer_mode="max"), seed=5)
        jam_started = None
        for t in range(200):
            _, _, info = env.step_action(Action(hop=False, power_index=0))
            if info.state == J and jam_started is None:
                jam_started = t
            elif jam_started is not None:
                assert info.state == J
        assert jam_started is not None and jam_started < 8

    def test_jammer_finds_victim_within_sweep_cycle(self):
        # From a fresh sweep, a staying victim is found within S slots.
        env = SweepJammingEnv(MDPConfig(jammer_mode="max"), seed=6)
        hits = 0
        for _ in range(50):
            env.reset()
            for t in range(4):
                _, _, info = env.step_action(Action(hop=False, power_index=0))
                if info.jam_attempted:
                    hits += 1
                    break
            else:
                pytest.fail("victim not found within one sweep cycle")
        assert hits == 50

    def test_power_defeats_random_jammer_sometimes(self):
        env = SweepJammingEnv(MDPConfig(jammer_mode="random"), seed=7)
        defeats = 0
        attempts = 0
        for _ in range(2000):
            _, _, info = env.step_action(Action(hop=False, power_index=9))
            attempts += info.jam_attempted
            defeats += info.jam_defeated
        assert attempts > 0
        # Top victim level 15 survives jammer levels 11..15: about half.
        assert defeats / attempts == pytest.approx(0.5, abs=0.1)

    def test_max_jammer_never_defeated(self):
        env = SweepJammingEnv(MDPConfig(jammer_mode="max"), seed=8)
        for _ in range(500):
            _, _, info = env.step_action(Action(hop=False, power_index=9))
            assert not info.jam_defeated

    def test_reward_structure(self):
        cfg = MDPConfig()
        env = SweepJammingEnv(cfg, seed=9)
        _, reward, info = env.step_action(Action(hop=True, power_index=0))
        expected = -(cfg.tx_power_levels[0] + cfg.loss_hop)
        if info.state == J:
            expected -= cfg.loss_jam
        assert reward == expected

    def test_seeded_reproducibility(self):
        def run(seed):
            env = SweepJammingEnv(seed=seed)
            out = []
            for i in range(60):
                _, r, info = env.step_index(i % 160)
                out.append((r, info.state))
            return out

        assert run(11) == run(11)

    def test_empirical_first_hit_distribution(self):
        # The sweep-without-replacement mechanics make the first-detection
        # time uniform over {1..S} for a staying victim (kernel Eqs. 6-8).
        env = SweepJammingEnv(MDPConfig(jammer_mode="max"), seed=12)
        counts = np.zeros(5)
        for _ in range(2000):
            env.reset()
            for t in range(1, 5):
                _, _, info = env.step_action(Action(hop=False, power_index=0))
                if info.jam_attempted:
                    counts[t] += 1
                    break
        probs = counts[1:] / counts.sum()
        np.testing.assert_allclose(probs, 0.25, atol=0.04)


class TestSeededResetIsolation:
    """Regression: a seeded reset must not leak strategy/jammer state.

    SweepJammingEnv used to hand an injected sweep strategy straight to the
    jammer, so ``reset(seed=k)`` reused the strategy's *mutated* state
    (adaptive scores, partial cycles) and two same-seed episodes diverged.
    The env now deep-copies the pristine template on every seeded reset.
    """

    def _trace(self, env, seed, steps=150):
        env.reset(seed=seed)
        actions = np.random.default_rng(5)
        out = []
        for _ in range(steps):
            _, reward, info = env.step_index(int(actions.integers(env.num_actions)))
            out.append((reward, info))
        return out

    def test_seeded_reset_restores_injected_strategy_state(self):
        from repro.jamming.strategies import AdaptiveSweep

        cfg = MDPConfig(jammer_mode="max")
        env = SweepJammingEnv(
            cfg, seed=0, sweep_strategy=AdaptiveSweep(cfg.sweep_cycle, seed=9)
        )
        assert self._trace(env, seed=42) == self._trace(env, seed=42)

    def test_seeded_reset_rebuilds_factory_jammers(self):
        from tests.oracles.adversary import make_slot_jammer_factory

        env = SweepJammingEnv(
            seed=0, jammer_factory=make_slot_jammer_factory("follower")
        )
        assert self._trace(env, seed=7) == self._trace(env, seed=7)

    def test_strategy_and_factory_are_mutually_exclusive(self):
        from repro.jamming.strategies import SequentialSweep

        with pytest.raises(ConfigurationError, match="not both"):
            SweepJammingEnv(
                seed=0,
                sweep_strategy=SequentialSweep(4),
                jammer_factory=lambda config, rng: None,
            )

    def test_injected_strategy_template_stays_pristine(self):
        from repro.jamming.strategies import AdaptiveSweep

        cfg = MDPConfig(jammer_mode="max")
        template = AdaptiveSweep(cfg.sweep_cycle, seed=3)
        env = SweepJammingEnv(cfg, seed=0, sweep_strategy=template)
        self._trace(env, seed=1)
        # Episodes mutate the jammer's copy, never the caller's object.
        assert template._scores.sum() == 0.0


class TestChannelTiers:
    """Fidelity-tier selection threaded through both environments."""

    @staticmethod
    def _sweep_trajectory(**kwargs):
        env = SweepJammingEnv(seed=11, **kwargs)
        out = []
        for i in range(150):
            _, reward, info = env.step_index(i % env.num_actions)
            out.append((reward, info.state, info.jam_attempted))
        return out

    def test_analytic_default_bit_identical(self):
        # channel=None (default) and channel="analytic" must be the same
        # trajectory: the analytic adjudicator consumes no randomness.
        assert self._sweep_trajectory() == self._sweep_trajectory(channel="analytic")

    def test_hybrid_sweep_deterministic(self):
        a = self._sweep_trajectory(channel="hybrid")
        b = self._sweep_trajectory(channel="hybrid")
        assert a == b

    def test_env_variable_selects_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHANNEL", "hybrid")
        env = AnalyticJammingEnv(seed=0)
        assert env._adjudicator.tier == "hybrid"
        monkeypatch.setenv("REPRO_CHANNEL", "")
        assert AnalyticJammingEnv(seed=0)._adjudicator.analytic

    def test_hybrid_rewires_jam_success_law(self):
        # Levels straddling the capture transition: analytically a jammer
        # below the tx power never wins; under the calibrated tier the
        # -1.4 dB margin still corrupts a fraction of the packets.
        cfg = MDPConfig(
            tx_power_levels=(11.0, 11.4, 12.0),
            jammer_power_levels=(8.0, 10.0),
        )
        analytic = AnalyticJammingEnv(cfg, seed=0)
        hybrid = AnalyticJammingEnv(cfg, seed=0, channel="hybrid")
        p_analytic = analytic.mdp.config.jam_success_probability(1)
        p_hybrid = hybrid.mdp.config.jam_success_probability(1)
        assert p_analytic == 0.0
        assert 0.0 < p_hybrid < 1.0

    def test_analytic_env_hybrid_runs(self):
        env = AnalyticJammingEnv(seed=4, channel="hybrid")
        for i in range(50):
            state, reward, info = env.step(Action(hop=i % 2 == 0, power_index=0))
            assert state in env.mdp.states


class TestHistoryRows:
    @pytest.mark.parametrize("num_channels", [2, 16])
    def test_matches_history_row(self, num_channels):
        cfg = MDPConfig(num_channels=num_channels, jam_width=1)
        rng = np.random.default_rng(3)
        codes = rng.choice([-2, -1, *range(1, cfg.sweep_cycle)], 200)  # J, TJ, streaks
        channels = rng.integers(0, cfg.num_channels, 200)
        powers = rng.integers(0, cfg.num_power_levels, 200)
        got = history_rows(codes, channels, powers, cfg)
        want = [
            history_row(code_state(int(c)), int(ch), int(p), cfg)
            for c, ch, p in zip(codes, channels, powers)
        ]
        assert got.dtype == np.float64
        assert got.tolist() == [list(row) for row in want]
