"""Tests for the adversarial jammer suite (reactive / follower / learning).

The anchor is the equivalence contract: an *ideal* reactive jammer
(perfect detection, zero latency, unbounded duty cycle) consumes the same
rng draws and makes the same decisions as the paper's proactive
sweep/camp jammer, so its traces are bit-for-bit identical in both timing
models. Every non-default knob then changes behaviour in a measurable way.
"""

import numpy as np
import pytest

from repro.core.envs import SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.core.selfplay import SelfPlayConfig, train_selfplay
from repro.errors import ConfigurationError
from repro.jamming.adversary import (
    FollowerCore,
    JammerMemory,
    LearningCore,
    ReactiveCore,
    make_field_jammer,
)
from repro.jamming.jammer import (
    FieldJammer,
    FieldJammerConfig,
    FollowerJammerConfig,
    ReactiveJammerConfig,
)
from tests.oracles.adversary import make_slot_jammer_factory


@pytest.fixture(scope="module")
def trained_jammer():
    """A tiny self-play-trained jammer DQN shared by the learning tests."""
    result = train_selfplay(
        SelfPlayConfig(pairs=1, episodes=2, steps_per_episode=60), seed=1
    )
    return result.best_jammer


def _monotone_windows(rng, n=200):
    """Random monotone windows with occasional gaps, plus victim channels."""
    windows, t = [], 0.0
    for _ in range(n):
        if rng.random() < 0.2:
            t += float(rng.uniform(0.0, 4.0))  # a gap: decisions run late
        duration = float(rng.uniform(0.5, 5.0))
        windows.append((t, t + duration))
        t += duration
    channels = [int(c) for c in rng.integers(16, size=n)]
    return windows, channels


class TestIdealEquivalence:
    """ReactiveJammerConfig() defaults degenerate to the paper's jammer."""

    @pytest.mark.parametrize("mode", ["max", "random"])
    def test_field_traces_bit_identical(self, mode):
        windows, channels = _monotone_windows(np.random.default_rng(17))
        base = FieldJammer(FieldJammerConfig(mode=mode), seed=11)
        react = make_field_jammer(
            FieldJammerConfig(mode=mode, adversary="reactive"), seed=11
        )
        assert type(react.core) is ReactiveCore
        for (a, b), c in zip(windows, channels):
            assert base.attack_profile(a, b, c) == react.attack_profile(a, b, c)
            assert base.active_channels == react.active_channels
            assert (base.core.camping is None) == (react.core.camping is None)

    @pytest.mark.parametrize("mode", ["max", "random"])
    def test_slot_traces_bit_identical(self, mode):
        cfg = MDPConfig(jammer_mode=mode)
        base = SweepJammingEnv(cfg, seed=3)
        react = SweepJammingEnv(
            cfg, seed=3, jammer_factory=make_slot_jammer_factory("reactive")
        )
        actions = np.random.default_rng(7)
        for _ in range(400):
            action = int(actions.integers(base.num_actions))
            obs_b, reward_b, info_b = base.step_index(action)
            obs_r, reward_r, info_r = react.step_index(action)
            assert np.array_equal(obs_b, obs_r)
            assert reward_b == reward_r
            assert info_b == info_r


class TestReactiveField:
    def _staying_profiles(self, rc, *, seed=0, windows=40, channel=7):
        jammer = make_field_jammer(
            FieldJammerConfig(adversary="reactive", reactive=rc), seed=seed
        )
        profiles = []
        for k in range(windows):
            profiles.append(jammer.attack_profile(k * 3.0, (k + 1) * 3.0, channel))
        return jammer, profiles

    def test_latency_shaves_each_burst(self):
        rc = ReactiveJammerConfig(response_latency_s=1.0)
        jammer = make_field_jammer(
            FieldJammerConfig(adversary="reactive", reactive=rc), seed=2
        )
        t = 0.0
        while jammer.core.camping is None:
            jammer.attack_profile(t, t + 3.0, 7)
            t += 3.0
        profile = jammer.attack_profile(t, t + 3.0, 7)
        # One second of turnaround leaves 2 of the 3 s window attacked.
        assert profile.attempted
        assert profile.jammed_fraction == pytest.approx(2.0 / 3.0)

    def test_duty_cycle_budget_forces_idle_decisions(self):
        _, profiles = self._staying_profiles(
            ReactiveJammerConfig(duty_cycle=0.5), windows=41
        )
        attacked = [p.attempted for p in profiles[11:]]
        # The token bucket refills half a slot per slot: roughly every
        # other decision transmits once the initial budget is spent.
        assert 0.3 <= np.mean(attacked) <= 0.7

    def test_inaudible_victim_is_never_classified(self):
        rc = ReactiveJammerConfig(victim_rx_dbm=-95.0)  # below -85 dBm floor
        jammer, profiles = self._staying_profiles(rc)
        assert jammer.core.camping is None
        # Sweep-and-jam still lands blind hits but never locks on.
        assert any(p.attempted for p in profiles)

    def test_sense_only_jammer_transmits_nothing_until_classified(self):
        jammer, profiles = self._staying_profiles(
            ReactiveJammerConfig(transmit_on_sweep=False)
        )
        first = next(i for i, p in enumerate(profiles) if p.attempted)
        assert first < 4  # found within one sweep cycle
        assert not any(p.attempted for p in profiles[:first])
        assert all(p.attempted for p in profiles[first:])
        assert jammer.core.camping is not None

    def test_eavesdropper_relocks_after_escape(self):
        rc = ReactiveJammerConfig(eavesdrop_probability=1.0)
        jammer = make_field_jammer(
            FieldJammerConfig(adversary="reactive", reactive=rc), seed=4
        )
        t = 0.0
        while jammer.core.camping is None:
            jammer.attack_profile(t, t + 3.0, 7)
            t += 3.0
        # Victim escapes: one decision is burned noticing, but the sniffed
        # negotiation hands the jammer the new block — no sweep needed.
        noticed = jammer.attack_profile(t, t + 3.0, 0)
        relocked = jammer.attack_profile(t + 3.0, t + 6.0, 0)
        assert not noticed.attempted
        assert relocked.attempted and jammer.core.camping is not None

    def test_decoy_baits_camping_away_from_victim(self):
        # Victim inaudible, sense-only jammer: only the decoy can lure it.
        rc = ReactiveJammerConfig(transmit_on_sweep=False, victim_rx_dbm=-95.0)
        jammer = make_field_jammer(
            FieldJammerConfig(adversary="reactive", reactive=rc), seed=5
        )
        decoy = 5  # sits in a different block from the victim's channel 0
        for k in range(4):
            jammer.observe_decoy(decoy)
            profile = jammer.attack_profile(k * 3.0, (k + 1) * 3.0, 0)
            assert not profile.attempted  # the victim is never touched
        assert jammer.core.camping is not None
        assert decoy in jammer.active_channels
        assert 0 not in jammer.active_channels

    def test_decoy_range_validated(self):
        jammer = make_field_jammer(FieldJammerConfig(adversary="reactive"), seed=0)
        with pytest.raises(ConfigurationError):
            jammer.observe_decoy(99)
        jammer.observe_decoy(None)  # clearing is always fine

    def test_slot_decoy_range_validated(self):
        jammer = make_slot_jammer_factory("reactive")(
            MDPConfig(), np.random.default_rng(0)
        )
        with pytest.raises(ConfigurationError, match="decoy channel"):
            jammer.observe_decoy(16)
        with pytest.raises(ConfigurationError, match="decoy channel"):
            jammer.observe_decoy(-1)
        jammer.observe_decoy(None)  # clearing is always fine


class TestFollowerField:
    def _hopping_profiles(self, fc, *, windows=12, seed=0):
        jammer = make_field_jammer(
            FieldJammerConfig(adversary="follower", follower=fc), seed=seed
        )
        assert type(jammer.core) is FollowerCore
        profiles = []
        for k in range(windows):
            channel = 0 if k % 2 == 0 else 15  # hops across distant blocks
            profiles.append(jammer.attack_profile(k * 3.0, (k + 1) * 3.0, channel))
        return profiles

    def test_zero_lag_is_a_perfect_follower(self):
        profiles = self._hopping_profiles(FollowerJammerConfig(lag_slots=0))
        assert all(p.attempted for p in profiles)
        assert all(p.jammed_fraction == pytest.approx(1.0) for p in profiles)

    def test_one_slot_lag_never_catches_a_per_slot_hopper(self):
        profiles = self._hopping_profiles(FollowerJammerConfig(lag_slots=1))
        assert not any(p.attempted for p in profiles)

    def test_one_slot_lag_pins_a_staying_victim(self):
        jammer = make_field_jammer(
            FieldJammerConfig(
                adversary="follower", follower=FollowerJammerConfig(lag_slots=1)
            ),
            seed=1,
        )
        first = jammer.attack_profile(0.0, 3.0, 7)
        later = [jammer.attack_profile(k * 3.0, (k + 1) * 3.0, 7) for k in (1, 2, 3)]
        assert not first.attempted  # the trail is not deep enough yet
        assert all(p.attempted for p in later)

    def test_inaudible_victim_leaves_no_trail(self):
        fc = FollowerJammerConfig(lag_slots=0, victim_rx_dbm=-95.0)
        profiles = self._hopping_profiles(fc)
        assert not any(p.attempted for p in profiles)


class TestLearningJammers:
    def test_field_deployment_is_deterministic(self, trained_jammer):
        cfg = FieldJammerConfig(adversary="learning", learning_agent=trained_jammer)
        runs = []
        for _ in range(2):
            jammer = make_field_jammer(cfg, seed=6)
            assert type(jammer.core) is LearningCore
            runs.append(
                [
                    jammer.attack_profile(k * 3.0, (k + 1) * 3.0, k % 16)
                    for k in range(30)
                ]
            )
        assert runs[0] == runs[1]
        assert any(p.attempted for p in runs[0])

    def test_slot_deployment_is_deterministic(self, trained_jammer):
        def trace():
            env = SweepJammingEnv(
                seed=0,
                jammer_factory=make_slot_jammer_factory(
                    "learning", agent=trained_jammer
                ),
            )
            actions = np.random.default_rng(9)
            return [
                env.step_index(int(actions.integers(env.num_actions)))[2]
                for _ in range(80)
            ]

        assert trace() == trace()

    def test_missing_agent_points_at_selfplay(self):
        with pytest.raises(ConfigurationError, match="train_selfplay"):
            make_field_jammer(FieldJammerConfig(adversary="learning"), seed=0)

    def test_geometry_mismatch_is_rejected(self, trained_jammer):
        # 8-wide blocks leave 2 blocks; the agent was trained on 4.
        cfg = FieldJammerConfig(
            adversary="learning", learning_agent=trained_jammer, jam_width=8
        )
        with pytest.raises(ConfigurationError, match="blocks"):
            make_field_jammer(cfg, seed=0)


class TestSlotReactiveQuantisation:
    def _run(self, reactive, *, steps=60, seed=0):
        env = SweepJammingEnv(
            seed=seed,
            jammer_factory=make_slot_jammer_factory(
                "reactive", reactive=reactive, slot_duration_s=3.0
            ),
        )
        channel = env.channel
        action = env.channel_power_to_action(channel, 0)
        return [env.step_index(action)[2] for _ in range(steps)]

    def test_sub_half_slot_latency_still_attacks(self):
        infos = self._run(ReactiveJammerConfig(response_latency_s=1.0))
        assert any(info.jam_attempted for info in infos)

    def test_latency_past_half_slot_voids_every_burst(self):
        # 2 s of turnaround on a 3 s slot leaves less than half the slot
        # attacked — below the jam_state_threshold, so no slot attack.
        infos = self._run(ReactiveJammerConfig(response_latency_s=2.0))
        assert not any(info.jam_attempted for info in infos)

    def test_duty_cycle_thins_the_camped_attacks(self):
        infos = self._run(ReactiveJammerConfig(duty_cycle=0.5), steps=50)
        attacked = [info.jam_attempted for info in infos[10:]]
        assert 0.3 <= np.mean(attacked) <= 0.7


class TestJammerMemory:
    def test_observation_shape_and_range(self):
        memory = JammerMemory(4, history_length=3)
        assert memory.observation_size == 9
        memory.update(hit=True, block=3)
        obs = memory.observation()
        assert obs.shape == (9,)
        assert obs.min() >= 0.0 and obs.max() <= 1.0

    def test_streak_accumulates_and_resets(self):
        memory = JammerMemory(4, history_length=1)
        memory.update(hit=True, block=0)
        memory.update(hit=True, block=0)
        assert memory.observation()[2] == pytest.approx(0.5)  # streak 2 of 4
        memory.update(hit=False, block=0)
        assert memory.observation()[2] == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JammerMemory(0)
        with pytest.raises(ConfigurationError):
            JammerMemory(4, history_length=0)


class TestDispatch:
    def test_field_dispatch_types(self):
        assert type(make_field_jammer(FieldJammerConfig(), seed=0)) is FieldJammer
        reactive = make_field_jammer(FieldJammerConfig(adversary="reactive"), seed=0)
        follower = make_field_jammer(FieldJammerConfig(adversary="follower"), seed=0)
        assert type(reactive.core) is ReactiveCore
        assert type(follower.core) is FollowerCore

    def test_sweep_factory_is_none(self):
        # Callers pass the result straight through; the env then builds
        # the paper's jammer itself.
        assert make_slot_jammer_factory("sweep") is None

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ConfigurationError):
            make_slot_jammer_factory("psychic")
        with pytest.raises(ConfigurationError):
            FieldJammerConfig(adversary="psychic")

    def test_reactive_config_validation(self):
        with pytest.raises(ConfigurationError):
            ReactiveJammerConfig(duty_cycle=0.0)
        with pytest.raises(ConfigurationError):
            ReactiveJammerConfig(response_latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            ReactiveJammerConfig(detection_probability=2.0)
        with pytest.raises(ConfigurationError):
            FollowerJammerConfig(lag_slots=-1)


class TestInstrumentationCounters:
    """Adversary-event counters drained into the telemetry layer."""

    def _camp(self, jammer, channel=7):
        t = 0.0
        while jammer.core.camping is None:
            jammer.attack_profile(t, t + 3.0, channel)
            t += 3.0
        return t

    def test_base_sweep_jammer_counts_nothing(self):
        jammer = FieldJammer(FieldJammerConfig(), seed=0)
        for k in range(10):
            jammer.attack_profile(k * 3.0, (k + 1) * 3.0, 7)
        assert jammer.drain_counters() == {}

    def test_reactive_duty_spend_and_starvation(self):
        rc = ReactiveJammerConfig(duty_cycle=0.5)
        jammer = make_field_jammer(
            FieldJammerConfig(adversary="reactive", reactive=rc), seed=0
        )
        for k in range(41):
            jammer.attack_profile(k * 3.0, (k + 1) * 3.0, 7)
        counters = jammer.drain_counters()
        assert counters["duty_starved"] >= 1
        assert counters["duty_spent_s"] > 0.0
        # the token bucket level is exposed for telemetry gauges
        assert 0.0 <= jammer.duty_tokens <= 3.0

    def test_reactive_lock_and_loss_transitions(self):
        jammer = make_field_jammer(FieldJammerConfig(adversary="reactive"), seed=4)
        t = self._camp(jammer, channel=7)
        assert jammer.drain_counters()["locks"] == 1
        jammer.attack_profile(t, t + 3.0, 0)  # victim escaped
        assert jammer.drain_counters()["lock_losses"] == 1

    def test_reactive_decoy_bait_counted(self):
        rc = ReactiveJammerConfig(transmit_on_sweep=False, victim_rx_dbm=-95.0)
        jammer = make_field_jammer(
            FieldJammerConfig(adversary="reactive", reactive=rc), seed=5
        )
        for k in range(4):
            jammer.observe_decoy(5)
            jammer.attack_profile(k * 3.0, (k + 1) * 3.0, 0)
        counters = jammer.drain_counters()
        assert counters["decoy_baits"] >= 1
        assert counters["locks"] >= 1

    def test_drain_is_destructive_and_survives_reset(self):
        jammer = make_field_jammer(FieldJammerConfig(adversary="reactive"), seed=4)
        self._camp(jammer)
        jammer.reset()  # new episode must not wipe pending counters
        counters = jammer.drain_counters()
        assert counters["locks"] >= 1
        assert jammer.drain_counters() == {}

    def test_follower_lock_transitions(self):
        fc = FollowerJammerConfig(lag_slots=1)
        jammer = make_field_jammer(
            FieldJammerConfig(adversary="follower", follower=fc), seed=0
        )
        assert type(jammer.core) is FollowerCore
        for k in range(4):  # victim stays: trail catches it after the lag
            jammer.attack_profile(k * 3.0, (k + 1) * 3.0, 7)
        assert jammer.drain_counters()["locks"] == 1
        jammer.attack_profile(12.0, 15.0, 0)  # hop: stale trail misses
        assert jammer.drain_counters()["lock_losses"] == 1

    def test_reactive_slot_counters(self):
        jammer = make_slot_jammer_factory(
            "reactive", reactive=ReactiveJammerConfig(duty_cycle=0.5)
        )(MDPConfig(), np.random.default_rng(0))
        for _ in range(40):
            jammer.observe_and_attack(7)
        counters = jammer.drain_counters()
        assert counters["locks"] >= 1
        assert counters["duty_spent_slots"] >= 1
        assert counters["duty_starved"] >= 1

    def test_follower_slot_counters(self):
        jammer = make_slot_jammer_factory(
            "follower", follower=FollowerJammerConfig(lag_slots=1)
        )(MDPConfig(), np.random.default_rng(0))
        for _ in range(4):
            jammer.observe_and_attack(7)
        assert jammer.drain_counters()["locks"] == 1
        jammer.observe_and_attack(0)
        assert jammer.drain_counters()["lock_losses"] == 1
