"""Tests for the 64-point OFDM modem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.phy import ofdm
from tests.oracles.rx import demodulate_stream


def random_grid(rng, n):
    re = rng.standard_normal((n, len(ofdm.DATA_INDICES)))
    im = rng.standard_normal((n, len(ofdm.DATA_INDICES)))
    return (re + 1j * im) / np.sqrt(2)


class TestGridGeometry:
    def test_counts(self):
        assert len(ofdm.DATA_INDICES) == 48
        assert len(ofdm.PILOT_INDICES) == 4
        assert ofdm.SYMBOL_LENGTH == 80

    def test_dc_not_used(self):
        assert 0 not in ofdm.DATA_INDICES

    def test_pilots_not_data(self):
        assert not set(ofdm.PILOT_INDICES) & set(ofdm.DATA_INDICES)

    def test_occupied_band(self):
        assert min(ofdm.DATA_INDICES) == -26
        assert max(ofdm.DATA_INDICES) == 26

    def test_grid_dataclass(self):
        assert len(ofdm.DATA_INDICES) == 48
        assert ofdm.SYMBOL_LENGTH == 80


class TestPilots:
    def test_polarity_values(self):
        assert ofdm.pilot_polarity(0) == 1.0
        assert ofdm.pilot_polarity(4) == -1.0

    def test_polarity_period(self):
        assert ofdm.pilot_polarity(3) == ofdm.pilot_polarity(3 + 127)

    def test_pilots_present_in_spectrum(self):
        sym = ofdm.modulate_symbol(np.zeros(48), symbol_index=0)
        spec = ofdm.spectrum_of(sym)
        for k, val in zip(ofdm.PILOT_INDICES, ofdm.PILOT_VALUES):
            assert spec[k % 64] == pytest.approx(val, abs=1e-9)


class TestRoundtrip:
    def test_single_symbol(self):
        rng = np.random.default_rng(0)
        data = random_grid(rng, 1)[0]
        sym = ofdm.modulate_symbol(data, symbol_index=3)
        assert sym.size == 80
        out = ofdm.demodulate_symbol(sym)
        np.testing.assert_allclose(out, data, atol=1e-10)

    def test_no_cp_variant(self):
        rng = np.random.default_rng(1)
        data = random_grid(rng, 1)[0]
        sym = ofdm.modulate_symbol(data, include_cp=False)
        assert sym.size == 64
        out = ofdm.demodulate_symbol(sym, has_cp=False)
        np.testing.assert_allclose(out, data, atol=1e-10)

    @given(st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_stream(self, n):
        rng = np.random.default_rng(n)
        grid = random_grid(rng, n)
        samples = ofdm.modulate_stream(grid)
        assert samples.size == n * 80
        out = demodulate_stream(samples)
        np.testing.assert_allclose(out, grid, atol=1e-10)

    def test_cyclic_prefix_is_copy_of_tail(self):
        rng = np.random.default_rng(2)
        sym = ofdm.modulate_symbol(random_grid(rng, 1)[0])
        np.testing.assert_allclose(sym[:16], sym[-16:], atol=1e-12)

    def test_wrong_data_count(self):
        with pytest.raises(EncodingError):
            ofdm.modulate_symbol(np.zeros(47))

    def test_wrong_sample_count(self):
        with pytest.raises(EncodingError):
            ofdm.demodulate_symbol(np.zeros(81, dtype=complex))

    def test_stream_length_validation(self):
        with pytest.raises(EncodingError):
            demodulate_stream(np.zeros(100, dtype=complex))

    def test_bad_grid_shape(self):
        with pytest.raises(EncodingError):
            ofdm.modulate_stream(np.zeros((2, 47), dtype=complex))


class TestEnergy:
    def test_parseval_scaling(self):
        # The sqrt(N) IFFT scaling preserves total energy between the
        # spectrum and the symbol body.
        rng = np.random.default_rng(3)
        data = random_grid(rng, 1)[0]
        sym = ofdm.modulate_symbol(data, include_cp=False, symbol_index=1)
        spec_energy = np.sum(np.abs(data) ** 2) + np.sum(ofdm.PILOT_VALUES**2)
        time_energy = np.sum(np.abs(sym) ** 2)
        assert time_energy == pytest.approx(spec_energy)
