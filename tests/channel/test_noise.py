"""Tests for noise-floor and dB conversion helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import noise as N
from repro.errors import ChannelError


class TestConversions:
    def test_db_to_linear(self):
        assert N.db_to_linear(10.0) == pytest.approx(10.0)
        assert N.db_to_linear(0.0) == 1.0
        assert N.db_to_linear(-3.0) == pytest.approx(0.501187, rel=1e-5)

    def test_dbm_watts(self):
        assert N.dbm_to_watts(30.0) == pytest.approx(1.0)
        assert N.dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert N.watts_to_dbm(0.1) == pytest.approx(20.0)

    @given(st.floats(min_value=-120, max_value=60))
    @settings(max_examples=30)
    def test_roundtrip(self, dbm):
        assert N.watts_to_dbm(N.dbm_to_watts(dbm)) == pytest.approx(dbm)

    def test_invalid_inputs(self):
        with pytest.raises(ChannelError):
            N.watts_to_dbm(0.0)
        with pytest.raises(ChannelError):
            N.watts_to_dbm(-1.0)


class TestNoiseFloor:
    def test_zigbee_channel_floor(self):
        # -174 + 10log10(2e6) + 10 = -101 dBm.
        assert N.thermal_noise_dbm(2e6, 10.0) == pytest.approx(-100.99, abs=0.01)

    def test_wifi_channel_floor(self):
        assert N.thermal_noise_dbm(20e6, 10.0) == pytest.approx(-90.99, abs=0.01)

    def test_wider_band_noisier(self):
        assert N.thermal_noise_dbm(20e6) > N.thermal_noise_dbm(2e6)

    def test_bad_bandwidth(self):
        with pytest.raises(ChannelError):
            N.thermal_noise_dbm(0.0)


class TestCombine:
    def test_empty_is_silent(self):
        assert N.combine_powers_dbm([]) == float("-inf")

    def test_single(self):
        assert N.combine_powers_dbm([-50.0]) == pytest.approx(-50.0)

    def test_two_equal_add_3db(self):
        assert N.combine_powers_dbm([-50.0, -50.0]) == pytest.approx(-46.99, abs=0.01)

    def test_dominated_by_strongest(self):
        assert N.combine_powers_dbm([-50.0, -90.0]) == pytest.approx(-50.0, abs=0.01)
