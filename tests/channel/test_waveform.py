"""Waveform-level validation of the analytic interference models.

These tests superpose *real* baseband waveforms and run the genuine
ZigBee receiver, then check that the analytic models in
``repro.channel.link`` describe what actually happens — the central
asymmetry of the paper at sample level.
"""

import numpy as np
import pytest

from repro.channel.link import JammerSignalType, chip_flip_probability
from repro.channel.waveform import (
    awgn,
    jam_trial,
    make_jamming_waveform,
    mix,
    scale_to_power,
)
from repro.errors import ChannelError
from tests.oracles.channel import empirical_chip_flip_rate


class TestPrimitives:
    def test_scale_to_power(self):
        rng = np.random.default_rng(0)
        wf = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        out = scale_to_power(wf, -10.0)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(0.1, rel=1e-9)

    def test_scale_validation(self):
        with pytest.raises(ChannelError):
            scale_to_power(np.zeros(0, complex), 0.0)
        with pytest.raises(ChannelError):
            scale_to_power(np.zeros(8, complex), 0.0)

    def test_awgn_power(self):
        noise = awgn(20000, -3.0, rng=1)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.501, rel=0.05)

    def test_awgn_validation(self):
        with pytest.raises(ChannelError):
            awgn(-1, 0.0)

    def test_mix_pads_shorter(self):
        a = np.ones(4, complex)
        b = np.ones(2, complex)
        out = mix(a, b)
        assert out.tolist() == [2, 2, 1, 1]

    def test_mix_validation(self):
        with pytest.raises(ChannelError):
            mix()


class TestJammingWaveforms:
    @pytest.mark.parametrize("sig", list(JammerSignalType))
    def test_unit_power_and_length(self, sig):
        wf = make_jamming_waveform(sig, 4000, rng=0)
        assert wf.size == 4000
        assert np.mean(np.abs(wf) ** 2) == pytest.approx(1.0, rel=1e-6)

    def test_offset_shifts_spectrum(self):
        wf0 = make_jamming_waveform(JammerSignalType.ZIGBEE, 4000, rng=0)
        wf1 = make_jamming_waveform(
            JammerSignalType.ZIGBEE, 4000, rng=0, offset_hz=5e6
        )
        f0 = np.argmax(np.abs(np.fft.fft(wf0)))
        f1 = np.argmax(np.abs(np.fft.fft(wf1)))
        assert f0 != f1

    def test_validation(self):
        with pytest.raises(ChannelError):
            make_jamming_waveform(JammerSignalType.WIFI, 0)


class TestJamTrial:
    def test_clean_delivery_without_jamming(self):
        res = jam_trial(
            b"hello!", signal_type=JammerSignalType.ZIGBEE,
            jam_to_signal_db=-40.0, rng=0,
        )
        assert res.packet_delivered
        assert res.chip_error_rate < 0.01
        assert res.decoded == b"hello!"

    def test_strong_zigbee_jam_destroys_packet(self):
        res = jam_trial(
            b"payload!", signal_type=JammerSignalType.ZIGBEE,
            jam_to_signal_db=15.0, rng=1,
        )
        assert not res.packet_delivered
        assert res.symbol_error_rate > 0.3

    def test_validation(self):
        with pytest.raises(ChannelError):
            jam_trial(b"", signal_type=JammerSignalType.WIFI, jam_to_signal_db=0.0)


class TestModelValidation:
    """The analytic models vs sample-level ground truth."""

    def test_dsss_asymmetry_at_equal_power(self):
        # The paper's core claim at waveform level: at J/S = 0 dB a genuine
        # ZigBee chip stream corrupts ~25 % of chips while a Wi-Fi OFDM
        # frame of the same received power is despread away.
        zig = empirical_chip_flip_rate(
            JammerSignalType.ZIGBEE, 0.0, trials=6, rng=2
        )
        wifi = empirical_chip_flip_rate(
            JammerSignalType.WIFI, 0.0, trials=6, rng=3
        )
        assert zig > 0.15
        assert wifi < 0.03
        assert zig > wifi + 0.15

    def test_chip_flip_model_tracks_waveform_truth(self):
        # The logistic chip-capture model matches genuine-chip jamming to
        # within ~0.1 across the transition region.
        for margin in (-10.0, 0.0, 10.0):
            measured = empirical_chip_flip_rate(
                JammerSignalType.ZIGBEE, margin, trials=6, rng=int(margin) + 50
            )
            predicted = chip_flip_probability(margin)
            assert abs(measured - predicted) < 0.12, (margin, measured, predicted)

    def test_chip_errors_monotone_in_jam_power(self):
        rates = [
            empirical_chip_flip_rate(
                JammerSignalType.ZIGBEE, m, trials=5, rng=7
            )
            for m in (-10.0, 0.0, 10.0)
        ]
        assert rates[0] < rates[1] < rates[2] + 1e-9

    def test_emubee_needs_margin_but_converges(self):
        # Imperfect emulation costs some effective power (the
        # EMULATION_LOSS_DB penalty is a lower bound), but at high power the
        # forged chips capture the receiver like genuine ones.
        emu_low = empirical_chip_flip_rate(
            JammerSignalType.EMUBEE, 0.0, trials=5, rng=8
        )
        zig_low = empirical_chip_flip_rate(
            JammerSignalType.ZIGBEE, 0.0, trials=5, rng=9
        )
        emu_high = empirical_chip_flip_rate(
            JammerSignalType.EMUBEE, 18.0, trials=5, rng=10
        )
        assert emu_low < zig_low  # fidelity penalty
        assert emu_high > 0.3  # but still a lethal jammer when strong

    def test_emubee_beats_wifi_at_equal_power(self):
        # The reason cross-technology jamming wins: same radio, same power,
        # but the emulated chips bypass the DSSS protection.
        emu = empirical_chip_flip_rate(
            JammerSignalType.EMUBEE, 10.0, trials=5, rng=11
        )
        wifi = empirical_chip_flip_rate(
            JammerSignalType.WIFI, 10.0, trials=5, rng=12
        )
        assert emu > wifi + 0.1
