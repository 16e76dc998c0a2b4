"""Tests for the shared-medium arbitration layer."""

import pytest

from repro.channel.link import JammerSignalType
from repro.channel.medium import ActiveTransmission, Medium
from repro.errors import ChannelError, ConfigurationError


def make_medium(seed=0):
    m = Medium(seed=seed)
    m.place("hub", 0.0, 0.0)
    m.place("node1", 3.0, 0.0)
    m.place("jammer", 0.0, 5.0)
    return m


class TestGeometry:
    def test_place_and_distance(self):
        m = make_medium()
        assert m.distance_between("hub", "node1") == 3.0

    def test_replace_moves_node(self):
        m = make_medium()
        m.place("node1", 6.0, 0.0)
        assert m.distance_between("hub", "node1") == 6.0

    def test_unknown_node(self):
        with pytest.raises(ChannelError):
            make_medium().placement("ghost")

    def test_rx_power_declines_with_distance(self):
        m = make_medium()
        m.place("far", 30.0, 0.0)
        near = m.rx_power_dbm("node1", "hub", 0.0)
        far = m.rx_power_dbm("far", "hub", 0.0)
        assert near > far

    def test_self_reception_rejected(self):
        with pytest.raises(ChannelError):
            make_medium().rx_power_dbm("hub", "hub", 0.0)


class TestCca:
    def test_idle_channel(self):
        m = make_medium()
        assert not m.channel_busy("hub", 15, [])

    def test_nearby_transmitter_sensed(self):
        m = make_medium()
        active = [ActiveTransmission("node1", 15, 0.0)]
        assert m.channel_busy("hub", 15, active)

    def test_far_off_frequency_not_sensed(self):
        m = make_medium()
        active = [ActiveTransmission("node1", 26, 0.0)]
        assert not m.channel_busy("hub", 11, active)

    def test_weak_signal_below_threshold(self):
        m = Medium(busy_threshold_dbm=-60.0)
        m.place("hub", 0.0, 0.0)
        m.place("far", 100.0, 0.0)
        active = [ActiveTransmission("far", 15, 0.0)]
        assert not m.channel_busy("hub", 15, active)


class TestFrameOutcome:
    def test_clean_link_delivers(self):
        m = make_medium()
        ok, per = m.frame_outcome(
            "node1", "hub", zigbee_channel=15, tx_power_dbm=0.0, packet_octets=60
        )
        assert ok and per < 1e-6

    def test_point_blank_jammer_kills(self):
        m = make_medium()
        m.place("jammer", 0.5, 0.0)
        active = [
            ActiveTransmission(
                "jammer", 15, 20.0, signal_type=JammerSignalType.EMUBEE
            )
        ]
        ok, per = m.frame_outcome(
            "node1",
            "hub",
            zigbee_channel=15,
            tx_power_dbm=0.0,
            packet_octets=60,
            active=active,
        )
        assert per > 0.99 and not ok

    def test_off_channel_jammer_harmless(self):
        m = make_medium()
        active = [
            ActiveTransmission(
                "jammer", 26, 20.0, signal_type=JammerSignalType.EMUBEE
            )
        ]
        ok, per = m.frame_outcome(
            "node1",
            "hub",
            zigbee_channel=11,
            tx_power_dbm=0.0,
            packet_octets=60,
            active=active,
        )
        assert ok and per < 1e-6

    def test_transmitter_excluded_from_interference(self):
        m = make_medium()
        active = [ActiveTransmission("node1", 15, 0.0)]
        ok, per = m.frame_outcome(
            "node1",
            "hub",
            zigbee_channel=15,
            tx_power_dbm=0.0,
            packet_octets=60,
            active=active,
        )
        assert ok and per < 1e-6

    def test_outcome_reproducible_with_seed(self):
        def run(seed):
            m = make_medium(seed=seed)
            m.place("jammer", 4.0, 0.0)
            active = [
                ActiveTransmission(
                    "jammer", 15, 0.0, signal_type=JammerSignalType.ZIGBEE
                )
            ]
            return [
                m.frame_outcome(
                    "node1",
                    "hub",
                    zigbee_channel=15,
                    tx_power_dbm=0.0,
                    packet_octets=60,
                    active=active,
                )[0]
                for _ in range(20)
            ]

        assert run(7) == run(7)


class TestChannelTiers:
    @staticmethod
    def _outcomes(channel, seed=7):
        m = Medium(seed=seed, channel=channel)
        m.place("hub", 0.0, 0.0)
        m.place("node1", 3.0, 0.0)
        m.place("jammer", 4.0, 0.0)
        active = [
            ActiveTransmission("jammer", 15, 5.0, signal_type=JammerSignalType.EMUBEE)
        ]
        return [
            m.frame_outcome(
                "node1",
                "hub",
                zigbee_channel=15,
                tx_power_dbm=0.0,
                packet_octets=60,
                active=active,
            )
            for _ in range(20)
        ]

    def test_default_is_analytic_and_bit_identical(self):
        m = Medium(seed=0)
        assert m.channel_tier == "analytic"
        assert self._outcomes(None) == self._outcomes("analytic")

    def test_hybrid_budget_installed_and_reproducible(self):
        from repro.channel.fidelity import HybridLinkBudget

        m = Medium(seed=0, channel="hybrid")
        assert m.channel_tier == "hybrid"
        assert isinstance(m.link_budget, HybridLinkBudget)
        assert m.link_table.budget is m.link_budget
        assert self._outcomes("hybrid") == self._outcomes("hybrid")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            Medium(seed=0, channel="exact")
