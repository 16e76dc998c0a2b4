"""Tests for the path-loss model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.propagation import LogDistancePathLoss
from repro.errors import ChannelError


class TestLossValues:
    def test_reference_loss(self):
        model = LogDistancePathLoss(ref_loss_db=40.0, exponent=2.0)
        assert model.loss_db(1.0) == pytest.approx(40.0)

    def test_decade_slope(self):
        model = LogDistancePathLoss(ref_loss_db=40.0, exponent=2.5)
        assert model.loss_db(10.0) - model.loss_db(1.0) == pytest.approx(25.0)

    def test_received_power(self):
        model = LogDistancePathLoss(ref_loss_db=40.0, exponent=2.0)
        assert model.received_power_dbm(20.0, 1.0) == pytest.approx(-20.0)

    def test_near_field_clamped(self):
        model = LogDistancePathLoss()
        assert model.loss_db(0.01) == model.loss_db(1.0)

    def test_zero_distance_rejected(self):
        with pytest.raises(ChannelError):
            LogDistancePathLoss().loss_db(0.0)

    @given(st.floats(min_value=1.0, max_value=1000.0))
    @settings(max_examples=30)
    def test_monotone_in_distance(self, d):
        model = LogDistancePathLoss()
        assert model.loss_db(d * 1.5) > model.loss_db(d)


class TestValidation:
    def test_bad_ref_distance(self):
        with pytest.raises(ChannelError):
            LogDistancePathLoss(ref_distance_m=0.0)

    def test_bad_exponent(self):
        with pytest.raises(ChannelError):
            LogDistancePathLoss(exponent=0.0)
