"""Tests for the IEEE 802.15.4 O-QPSK/DSSS PHY."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, EncodingError
from repro.phy import zigbee as Z
from tests.oracles.rx import zigbee_receive


class TestChipTable:
    def test_shape(self):
        assert Z.CHIP_TABLE.shape == (16, 32)

    def test_symbol_zero_matches_standard(self):
        expected = [int(chip) for chip in "11011001110000110101001000101110"]
        assert Z.CHIP_TABLE[0].tolist() == expected

    def test_symbol_one_is_rotation(self):
        assert np.array_equal(Z.CHIP_TABLE[1], np.roll(Z.CHIP_TABLE[0], 4))

    def test_symbol_eight_matches_standard(self):
        expected = [int(chip) for chip in "10001100100101100000011101111011"]
        assert Z.CHIP_TABLE[8].tolist() == expected

    def test_rows_distinct(self):
        rows = {tuple(r) for r in Z.CHIP_TABLE.tolist()}
        assert len(rows) == 16

    def test_good_cross_correlation(self):
        # Distinct PN sequences keep a healthy Hamming separation — the
        # source of DSSS robustness. The 802.15.4 set guarantees >= 12.
        for i in range(16):
            for j in range(i + 1, 16):
                d = int(np.sum(Z.CHIP_TABLE[i] != Z.CHIP_TABLE[j]))
                assert d >= 12, (i, j, d)

    def test_antipodal_table(self):
        assert set(np.unique(Z.CHIP_TABLE_PM)) == {-1.0, 1.0}


class TestSymbolPacking:
    @given(st.binary(max_size=64))
    def test_roundtrip(self, data):
        assert Z.symbols_to_bytes(Z.bytes_to_symbols(data)) == data

    def test_nibble_order(self):
        # 0xA3 -> low nibble 0x3 first.
        assert Z.bytes_to_symbols(b"\xa3").tolist() == [0x3, 0xA]

    def test_odd_symbol_count_rejected(self):
        with pytest.raises(DecodingError):
            Z.symbols_to_bytes([1, 2, 3])

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(DecodingError):
            Z.symbols_to_bytes([16, 0])


class TestSpreading:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=40))
    def test_despread_inverts_spread(self, symbols):
        chips = Z.spread(symbols)
        out, errors = Z.despread(chips)
        assert out.tolist() == symbols
        assert errors.sum() == 0

    def test_spread_length(self):
        assert Z.spread([0, 5, 9]).size == 96

    def test_bad_symbol(self):
        with pytest.raises(EncodingError):
            Z.spread([16])

    def test_partial_window_rejected(self):
        with pytest.raises(DecodingError):
            Z.despread(np.zeros(33, np.uint8))

    def test_despread_tolerates_chip_errors(self):
        rng = np.random.default_rng(0)
        symbols = list(rng.integers(0, 16, 50))
        chips = Z.spread(symbols).copy()
        # Flip 5 of every 32 chips: below half the minimum distance (12).
        for w in range(50):
            flip = rng.choice(32, size=5, replace=False) + 32 * w
            chips[flip] ^= 1
        out, errors = Z.despread(chips)
        assert out.tolist() == symbols
        assert errors.max() == 5


class TestOqpskWaveform:
    def test_unit_power(self):
        wf = Z.oqpsk_modulate(Z.spread([3, 7]))
        assert np.mean(np.abs(wf) ** 2) == pytest.approx(1.0)

    def test_odd_chip_count_rejected(self):
        with pytest.raises(EncodingError):
            Z.oqpsk_modulate([0])

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_waveform_roundtrip(self, symbols):
        chips = Z.spread(symbols)
        wf = Z.oqpsk_modulate(chips)
        out = Z.oqpsk_demodulate(wf)
        assert np.array_equal(out[: chips.size], chips)

    def test_roundtrip_with_awgn(self):
        rng = np.random.default_rng(1)
        chips = Z.spread(list(rng.integers(0, 16, 20)))
        wf = Z.oqpsk_modulate(chips)
        noisy = wf + 0.2 * (
            rng.standard_normal(wf.size) + 1j * rng.standard_normal(wf.size)
        )
        out = Z.oqpsk_demodulate(noisy)
        ber = np.mean(out[: chips.size] != chips)
        assert ber < 0.02

    def test_demod_too_short(self):
        with pytest.raises(DecodingError):
            Z.oqpsk_demodulate(np.zeros(5, dtype=complex))

    def test_samples_per_chip_variants(self):
        for spc in (2, 4, 8, 10):
            chips = Z.spread([1, 14])
            wf = Z.oqpsk_modulate(chips, samples_per_chip=spc)
            out = Z.oqpsk_demodulate(wf, samples_per_chip=spc)
            assert np.array_equal(out[: chips.size], chips)

    def test_half_sine_pulse_shape(self):
        pulse = Z.half_sine_pulse(10)
        assert pulse.size == 20
        assert pulse.max() <= 1.0
        assert pulse.min() > 0.0
        # Symmetric about the centre.
        np.testing.assert_allclose(pulse, pulse[::-1], atol=1e-12)


class TestPhyClass:
    def test_rates(self):
        assert Z.BIT_RATE == pytest.approx(250e3)
        assert Z.SYMBOL_RATE == pytest.approx(62.5e3)

    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_byte_roundtrip(self, data):
        phy = Z.ZigBeePhy()
        res = zigbee_receive(phy, phy.transmit(data), num_bytes=len(data))
        assert res.data == data
        assert res.chip_error_rate == 0.0

    def test_empty_payload_rejected(self):
        with pytest.raises(EncodingError):
            Z.ZigBeePhy().transmit(b"")

    def test_receive_insufficient_waveform(self):
        phy = Z.ZigBeePhy()
        wf = phy.transmit(b"\x01")
        with pytest.raises(DecodingError):
            zigbee_receive(phy, wf, num_bytes=5)

    def test_config_validation(self):
        with pytest.raises(EncodingError):
            Z.ZigBeePhyConfig(samples_per_chip=0)

    def test_sample_rate(self):
        assert Z.ZigBeePhyConfig(samples_per_chip=10).sample_rate == pytest.approx(20e6)
