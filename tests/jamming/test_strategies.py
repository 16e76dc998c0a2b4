"""Tests for jammer sweep strategies and their effect on the competition."""

import numpy as np
import pytest

from repro.core.baselines import NoDefensePolicy
from repro.core.envs import SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.core.metrics import evaluate_policy
from repro.core.policy import ThresholdPolicy
from repro.errors import ConfigurationError
from repro.jamming.strategies import (
    STRATEGY_NAMES,
    AdaptiveSweep,
    RandomSweep,
    SequentialSweep,
    make_strategy,
    strategy_options,
)


class TestRandomSweep:
    def test_cycle_covers_all_blocks(self):
        s = RandomSweep(4, seed=0)
        picks = {s.next_block() for _ in range(4)}
        assert picks == {0, 1, 2, 3}

    def test_new_cycle_after_exhaustion(self):
        s = RandomSweep(3, seed=1)
        first = [s.next_block() for _ in range(3)]
        second = [s.next_block() for _ in range(3)]
        assert sorted(first) == sorted(second) == [0, 1, 2]

    def test_notify_lost_excludes_stale_block(self):
        s = RandomSweep(4, seed=2)
        s.notify_lost(2)
        picks = [s.next_block() for _ in range(3)]
        assert 2 not in picks
        assert sorted(picks) == [0, 1, 3]

    def test_reset(self):
        s = RandomSweep(4, seed=3)
        s.notify_lost(0)
        s.reset()
        assert sorted(s.next_block() for _ in range(4)) == [0, 1, 2, 3]


class TestSequentialSweep:
    def test_rotation(self):
        s = SequentialSweep(4)
        assert [s.next_block() for _ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_resumes_after_lost(self):
        s = SequentialSweep(4)
        s.notify_lost(2)
        assert s.next_block() == 3

    def test_start_offset(self):
        s = SequentialSweep(4, start=2)
        assert s.next_block() == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SequentialSweep(4, start=4)
        with pytest.raises(ConfigurationError):
            SequentialSweep(0)


class TestAdaptiveSweep:
    def test_prefers_blocks_with_sightings(self):
        s = AdaptiveSweep(4, exploit_probability=1.0, seed=0)
        s.notify_found(2)
        picks = [s.next_block() for _ in range(4)]
        assert picks[0] == 2

    def test_scores_decay(self):
        s = AdaptiveSweep(4, memory_decay=0.5, seed=1)
        s.notify_found(1)
        s.notify_found(3)
        scores = s._scores
        assert scores[3] > scores[1] > 0

    def test_exploration_still_happens(self):
        s = AdaptiveSweep(4, exploit_probability=0.0, seed=2)
        s.notify_found(0)
        firsts = set()
        for _ in range(40):
            s.reset()
            s.notify_found(0)
            firsts.add(s.next_block())
        assert len(firsts) > 1  # pure exploration ignores the memory

    def test_exploit_tie_breaks_to_lowest_block(self):
        # With no sightings every score ties at zero; the exploit path must
        # then be deterministic (lowest block first), not rng-order.
        s = AdaptiveSweep(4, exploit_probability=1.0, seed=0)
        assert [s.next_block() for _ in range(4)] == [0, 1, 2, 3]

    def test_memory_decay_fades_old_sightings(self):
        s = AdaptiveSweep(4, exploit_probability=1.0, memory_decay=0.5, seed=0)
        s.notify_found(1)
        for _ in range(3):
            s.notify_found(3)
        scores = s._scores
        assert scores[3] > scores[1]
        assert scores[1] == pytest.approx(0.125)  # 1.0 decayed three times
        assert s.next_block() == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveSweep(4, exploit_probability=1.5)
        with pytest.raises(ConfigurationError):
            AdaptiveSweep(4, memory_decay=0.0)


class TestFactory:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_known_names(self, name):
        seed = 0 if "seed" in strategy_options(name) else None
        s = make_strategy(name, 4, seed=seed)
        assert 0 <= s.next_block() < 4

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_strategy("psychic", 4)

    def test_forwards_options(self):
        s = make_strategy(
            "adaptive", 4, seed=0, exploit_probability=0.25, memory_decay=0.5
        )
        assert isinstance(s, AdaptiveSweep)
        assert s.exploit_probability == 0.25
        assert s.memory_decay == 0.5
        seq = make_strategy("sequential", 4, start=2)
        assert seq.next_block() == 2

    def test_rejects_unknown_options(self):
        with pytest.raises(ConfigurationError, match="aggression"):
            make_strategy("random", 4, aggression=1.0)

    def test_rejects_seed_on_deterministic_strategy(self):
        # Silently discarding the seed would hide a reproducibility bug.
        with pytest.raises(ConfigurationError, match="seed"):
            make_strategy("sequential", 4, seed=7)

    def test_strategy_options_lists_accepted_keywords(self):
        assert "seed" in strategy_options("random")
        assert "seed" not in strategy_options("sequential")
        assert set(strategy_options("adaptive")) == {
            "exploit_probability",
            "memory_decay",
            "seed",
        }


class TestStrategyInEnvironment:
    def test_env_accepts_custom_strategy(self):
        cfg = MDPConfig(jammer_mode="max")
        env = SweepJammingEnv(
            cfg, seed=0, sweep_strategy=SequentialSweep(cfg.sweep_cycle)
        )
        m = evaluate_policy(env, NoDefensePolicy(), slots=2000)
        # A staying victim is destroyed by any sweep order.
        assert m.success_rate < 0.01

    def test_adaptive_jammer_punishes_channel_preference(self):
        # A victim that hops within a favourite pair of channels is found
        # faster by the memory-guided jammer than by the paper's random
        # sweep. The threshold-hopping defence keeps hopping between the
        # same two blocks, which the adaptive jammer memorises.
        cfg = MDPConfig(jammer_mode="max")
        policy = ThresholdPolicy(threshold=2, stay_power_index=0, hop_power_index=0)

        def jam_rate(strategy_name, seed):
            strategy = make_strategy(strategy_name, cfg.sweep_cycle, seed=seed)
            env = SweepJammingEnv(cfg, seed=seed, sweep_strategy=strategy)
            # Preference: the env's abstract hop draws uniformly, so build
            # preference by restricting channels via explicit steps.
            rate = 0
            channels = (0, 4)  # two favourite channels in two blocks
            current = 0
            for t in range(4000):
                action = policy.action(env.state)
                if action.hop:
                    current = channels[(channels.index(current) + 1) % 2]
                _, _, info = env.step_index(
                    env.channel_power_to_action(current, action.power_index)
                )
                rate += info.jam_attempted
            return rate / 4000

        adaptive = np.mean([jam_rate("adaptive", s) for s in (1, 2, 3)])
        random_ = np.mean([jam_rate("random", s) for s in (1, 2, 3)])
        assert adaptive > random_ + 0.05
