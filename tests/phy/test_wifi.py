"""Tests for the full 802.11 DATA-field chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, EncodingError
from repro.phy import ofdm
from repro.phy.wifi import RATES, WifiPhy, WifiPhyConfig
from tests.oracles.rx import wifi_receive


class TestRates:
    def test_table_complete(self):
        assert sorted(RATES) == [6, 9, 12, 18, 24, 36, 48, 54]

    @pytest.mark.parametrize("mbps", sorted(RATES))
    def test_data_bits_per_symbol_matches_rate(self, mbps):
        rate = RATES[mbps]
        # N_DBPS bits per 4 µs symbol must equal the advertised Mbit/s.
        symbol_time = ofdm.SYMBOL_LENGTH / ofdm.SAMPLE_RATE
        assert rate.data_bits_per_symbol / symbol_time == pytest.approx(mbps * 1e6)

    def test_known_ndbps(self):
        assert RATES[6].data_bits_per_symbol == 24
        assert RATES[54].data_bits_per_symbol == 216
        assert RATES[54].coded_bits_per_symbol == 288

    def test_bad_rate_rejected(self):
        with pytest.raises(EncodingError):
            WifiPhyConfig(rate_mbps=11)  # 802.11b rate, not OFDM


class TestRoundtrip:
    @pytest.mark.parametrize("mbps", sorted(RATES))
    def test_all_rates(self, mbps):
        phy = WifiPhy(WifiPhyConfig(rate_mbps=mbps))
        msg = bytes(range(100))
        assert wifi_receive(phy, phy.transmit(msg), num_bytes=100) == msg

    @given(st.binary(min_size=1, max_size=80))
    @settings(max_examples=15, deadline=None)
    def test_random_payloads(self, msg):
        phy = WifiPhy()
        assert wifi_receive(phy, phy.transmit(msg), num_bytes=len(msg)) == msg

    def test_single_byte(self):
        phy = WifiPhy(WifiPhyConfig(rate_mbps=6))
        assert wifi_receive(phy, phy.transmit(b"\xa5"), num_bytes=1) == b"\xa5"

    def test_nondefault_scrambler_seed(self):
        phy = WifiPhy(WifiPhyConfig(rate_mbps=54, scrambler_seed=1))
        msg = b"seed test"
        assert wifi_receive(phy, phy.transmit(msg), num_bytes=len(msg)) == msg

    def test_seed_mismatch_corrupts(self):
        tx = WifiPhy(WifiPhyConfig(scrambler_seed=1))
        rx = WifiPhy(WifiPhyConfig(scrambler_seed=2))
        msg = bytes(32)
        assert wifi_receive(rx, tx.transmit(msg), num_bytes=32) != msg


class TestStructure:
    def test_sample_count(self):
        phy = WifiPhy(WifiPhyConfig(rate_mbps=54))
        msg = bytes(100)
        _, n_sym = phy.build_data_bits(msg)
        assert phy.transmit(msg).size == n_sym * ofdm.SYMBOL_LENGTH

    def test_symbols_for_small_payload(self):
        phy = WifiPhy(WifiPhyConfig(rate_mbps=54))
        # 16 + 8 + 6 = 30 bits < 216 -> one symbol.
        assert phy.build_data_bits(bytes(1))[1] == 1

    def test_payload_capacity_inverse(self):
        phy = WifiPhy(WifiPhyConfig(rate_mbps=54))
        for n_sym in range(1, 6):
            cap = phy.payload_capacity(n_sym)
            assert phy.build_data_bits(bytes(cap))[1] == n_sym
            assert phy.build_data_bits(bytes(cap + 1))[1] == n_sym + 1

    def test_duration(self):
        phy = WifiPhy(WifiPhyConfig(rate_mbps=54))
        # One symbol lasts 4 µs.
        samples = phy.transmit(bytes(1))
        assert samples.size / ofdm.SAMPLE_RATE == pytest.approx(4e-6)

    def test_encode_grid_shape(self):
        phy = WifiPhy(WifiPhyConfig(rate_mbps=54))
        grid = phy.encode(bytes(60))
        assert grid.shape == (phy.build_data_bits(bytes(60))[1], 48)

    def test_tail_bits_zeroed_after_scrambling(self):
        phy = WifiPhy()
        payload = b"\xff" * 4
        bits, _ = phy.build_data_bits(payload)
        scrambled = phy.scramble_data(bits, len(payload) * 8)
        tail = scrambled[16 + 32 : 16 + 32 + 6]
        assert tail.sum() == 0


class TestRobustness:
    def test_corrects_channel_bit_errors(self):
        # Hard-decision Viterbi at rate 1/2 corrects sparse coded-bit errors.
        phy = WifiPhy(WifiPhyConfig(rate_mbps=6))
        msg = bytes(range(50))
        grid = phy.encode(msg)
        samples = ofdm.modulate_stream(grid)
        rng = np.random.default_rng(0)
        noisy = samples + 0.03 * (
            rng.standard_normal(samples.size) + 1j * rng.standard_normal(samples.size)
        )
        assert wifi_receive(phy, noisy, num_bytes=50) == msg

    def test_decode_points_shape_check(self):
        phy = WifiPhy()
        with pytest.raises(DecodingError):
            phy.decode_points(np.zeros((2, 47), dtype=complex), 10)

    def test_receive_too_short(self):
        phy = WifiPhy()
        samples = phy.transmit(b"x")
        with pytest.raises(DecodingError):
            wifi_receive(phy, samples, num_bytes=1000)

    def test_capacity_zero_symbols(self):
        phy = WifiPhy()
        with pytest.raises(EncodingError):
            phy.payload_capacity(0)
