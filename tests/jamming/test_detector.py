"""Tests for detection models and the stealthiness assessment."""

import pytest

from repro.channel.link import JammerSignalType
from repro.constants import ZIGBEE_PREAMBLE
from repro.errors import ConfigurationError
from repro.jamming.detector import (
    AckEavesdropper,
    EnergyDetector,
    stealth_assessment,
)
from tests.oracles.rx import encode_frame


class TestEnergyDetector:
    def test_threshold(self):
        det = EnergyDetector(sensitivity_dbm=-85.0)
        assert det.detects(-80.0)
        assert not det.detects(-90.0)


class TestAckEavesdropper:
    def test_always_overhears(self):
        ear = AckEavesdropper(1.0, seed=0)
        assert ear.observe(True) is True
        assert ear.observe(False) is False

    def test_never_overhears(self):
        ear = AckEavesdropper(0.0, seed=0)
        assert ear.observe(True) is None

    def test_partial_rate(self):
        ear = AckEavesdropper(0.5, seed=1)
        seen = sum(ear.observe(True) is not None for _ in range(2000))
        assert seen == pytest.approx(1000, rel=0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AckEavesdropper(1.5)

    def test_same_seed_is_deterministic(self):
        first = AckEavesdropper(0.5, seed=7)
        second = AckEavesdropper(0.5, seed=7)
        sequence = [first.observe(True) for _ in range(200)]
        assert sequence == [second.observe(True) for _ in range(200)]
        assert any(o is None for o in sequence)  # both branches exercised
        assert any(o is True for o in sequence)


class TestStealth:
    """Paper §II-B: EmuBee evades a format-based jamming watchdog; plain
    Wi-Fi noise does not."""

    def emubee_bursts(self, n=20):
        # EmuBee chips decode as a preamble followed by format-violating
        # garbage (no SFD, no parseable frame).
        return [ZIGBEE_PREAMBLE + bytes([0x33] * 30) for _ in range(n)]

    def wifi_bursts(self, n=20):
        # Plain Wi-Fi energy never despread into anything preamble-like.
        return [b"\x5a\xc3" * 16 for _ in range(n)]

    def test_emubee_is_stealthy(self):
        report = stealth_assessment(
            JammerSignalType.EMUBEE, self.emubee_bursts()
        )
        assert report.detection_rate == 0.0
        # ... while still consuming receiver time (denial of service).
        assert report.radio_busy_octets > 0

    def test_wifi_noise_is_flagged(self):
        report = stealth_assessment(JammerSignalType.WIFI, self.wifi_bursts())
        assert report.detection_rate == 1.0

    def test_legit_frames_not_flagged(self):
        frames = [encode_frame(b"hello") for _ in range(5)]
        report = stealth_assessment(JammerSignalType.ZIGBEE, frames)
        assert report.detection_rate == 0.0

    def test_empty_campaign(self):
        report = stealth_assessment(JammerSignalType.EMUBEE, [])
        assert report.detection_rate == 0.0
        assert report.bursts == 0
