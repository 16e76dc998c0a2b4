"""Tests for the time-domain field jammer."""

import pytest

from repro.core.mdp import JammerMode
from repro.errors import ConfigurationError
from repro.jamming.jammer import FieldJammer, FieldJammerConfig


class TestConfig:
    def test_default_blocks(self):
        assert FieldJammerConfig().num_blocks == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FieldJammerConfig(slot_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            FieldJammerConfig(jam_width=0)
        with pytest.raises(ConfigurationError):
            FieldJammerConfig(power_levels=())
        with pytest.raises(ConfigurationError):
            FieldJammerConfig(mode="sneaky")


class TestSweep:
    def test_blocks_partition_channels(self):
        j = FieldJammer(seed=0)
        flat = sorted(c for b in j.core.blocks for c in b)
        assert flat == list(range(16))

    def test_finds_staying_victim_within_cycle(self):
        # 4 blocks x 3 s: a victim staying on one channel is attacked
        # within 12 s.
        j = FieldJammer(FieldJammerConfig(slot_duration_s=3.0), seed=1)
        attacked_at = None
        for k in range(8):
            profile = j.attack_profile(k * 3.0, (k + 1) * 3.0, victim_channel=7)
            if profile.attempted:
                attacked_at = k
                break
        assert attacked_at is not None and attacked_at < 4

    def test_camps_once_found(self):
        j = FieldJammer(FieldJammerConfig(slot_duration_s=3.0, mode=JammerMode.MAX), seed=2)
        t = 0.0
        while True:
            profile = j.attack_profile(t, t + 3.0, victim_channel=7)
            t += 3.0
            if profile.attempted:
                break
        assert j.core.camping is not None
        # Every subsequent window on the same channel is fully jammed.
        for _ in range(5):
            profile = j.attack_profile(t, t + 3.0, victim_channel=7)
            t += 3.0
            assert profile.attempted
            assert profile.jammed_fraction == pytest.approx(1.0)
            assert profile.max_power == 20.0

    def test_loses_victim_and_reacquires(self):
        j = FieldJammer(FieldJammerConfig(slot_duration_s=3.0), seed=3)
        t = 0.0
        while j.core.camping is None:
            j.attack_profile(t, t + 3.0, victim_channel=7)
            t += 3.0
        # Victim hops far away: the jammer burns its next slot noticing.
        profile = j.attack_profile(t, t + 3.0, victim_channel=0)
        t += 3.0
        assert not profile.attempted
        assert j.core.camping is None

    def test_fast_jammer_attacks_fraction_of_window(self):
        # A 0.5 s jammer sweeping inside a 3 s victim slot attacks the
        # victim's channel for some but rarely all of the window before
        # camping.
        j = FieldJammer(FieldJammerConfig(slot_duration_s=0.5), seed=4)
        profile = j.attack_profile(0.0, 3.0, victim_channel=7)
        assert profile.attempted  # 6 decisions cover > 1 sweep cycle
        assert 0.0 < profile.jammed_fraction <= 1.0

    def test_slow_jammer_spans_windows(self):
        # With a 6 s jammer slot, one decision covers two 3 s windows.
        j = FieldJammer(FieldJammerConfig(slot_duration_s=6.0), seed=5)
        first = j.attack_profile(0.0, 3.0, victim_channel=7)
        second = j.attack_profile(3.0, 6.0, victim_channel=7)
        # The active block is unchanged across the two windows.
        assert first.attempted == second.attempted

    def test_random_mode_varies_power(self):
        j = FieldJammer(
            FieldJammerConfig(slot_duration_s=1.0, mode=JammerMode.RANDOM), seed=6
        )
        powers = set()
        t = 0.0
        for _ in range(200):
            profile = j.attack_profile(t, t + 1.0, victim_channel=7)
            t += 1.0
            if profile.attempted:
                powers.add(profile.max_power)
        assert len(powers) > 3

    def test_window_validation(self):
        j = FieldJammer(seed=7)
        with pytest.raises(ConfigurationError):
            j.attack_profile(1.0, 1.0, victim_channel=0)
        with pytest.raises(ConfigurationError):
            j.attack_profile(0.0, 1.0, victim_channel=99)

    def test_reset_restores_initial_state(self):
        j = FieldJammer(seed=8)
        j.attack_profile(0.0, 30.0, victim_channel=7)
        j.reset()
        assert j.core.camping is None


class TestClockContract:
    """attack_profile advances a monotone clock (module docstring contract)."""

    def test_backward_window_raises(self):
        j = FieldJammer(seed=0)
        j.attack_profile(0.0, 3.0, victim_channel=0)
        with pytest.raises(ConfigurationError, match="monotone"):
            j.attack_profile(1.0, 4.0, victim_channel=0)

    def test_gaps_are_fine(self):
        # The jammer simply makes its next decision late.
        j = FieldJammer(seed=0)
        j.attack_profile(0.0, 3.0, victim_channel=0)
        j.attack_profile(10.0, 13.0, victim_channel=0)

    def test_float_jitter_tolerated(self):
        j = FieldJammer(seed=0)
        j.attack_profile(0.0, 0.1 + 0.2, victim_channel=0)  # ends past 0.3
        j.attack_profile(0.3, 0.6, victim_channel=0)

    def test_reset_rewinds_the_clock(self):
        j = FieldJammer(seed=0)
        j.attack_profile(0.0, 30.0, victim_channel=7)
        j.reset()
        profile = j.attack_profile(0.0, 3.0, victim_channel=7)
        assert profile is not None  # time-zero windows are legal again


class TestAttackQueries:
    """The public attack-state accessors the field engines rely on."""

    def test_idle_before_first_window(self):
        j = FieldJammer(seed=9)
        assert j.active_channels == ()
        assert not j.is_attacking(0)

    def test_active_block_exposed_when_attacking(self):
        j = FieldJammer(seed=9)
        # Long window: the sweep finds and camps on the victim.
        profile = j.attack_profile(0.0, 30.0, victim_channel=7)
        assert profile.attempted and j.core.camping is not None
        assert j.is_attacking(7)
        assert 7 in j.active_channels
        assert len(j.active_channels) == j.config.jam_width
        for channel in j.active_channels:
            assert j.is_attacking(channel)
        quiet = set(range(j.config.num_channels)) - set(j.active_channels)
        assert not any(j.is_attacking(c) for c in quiet)

    def test_reacquisition_slot_reports_idle(self):
        j = FieldJammer(seed=9)
        j.attack_profile(0.0, 30.0, victim_channel=7)
        assert j.core.camping is not None
        # The victim escapes: the jammer burns its next slot re-acquiring,
        # during which no channel is under attack.
        block = j.active_channels
        escaped = next(
            c for c in range(j.config.num_channels) if c not in block
        )
        profile = j.attack_profile(30.0, 33.0, victim_channel=escaped)
        if not profile.attempted:
            assert j.active_channels == ()
            assert not j.is_attacking(escaped)

    def test_range_check(self):
        j = FieldJammer(seed=9)
        with pytest.raises(ConfigurationError):
            j.is_attacking(-1)
        with pytest.raises(ConfigurationError):
            j.is_attacking(j.config.num_channels)
