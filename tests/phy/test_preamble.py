"""Tests for the 802.11 short training field and frame-start detection."""

import numpy as np
import pytest

from repro.errors import DecodingError
from repro.phy import preamble as P
from repro.phy.wifi import WifiPhy, WifiPhyConfig
from tests.oracles.kernels import locate_preamble_reference


class TestTrainingFields:
    def test_stf_length_and_periodicity(self):
        stf = P.short_training_field()
        assert stf.size == 160
        # Ten repetitions of a 16-sample period.
        for k in range(1, 10):
            np.testing.assert_allclose(stf[:16], stf[16 * k : 16 * (k + 1)], atol=1e-12)

    def test_fields_have_energy(self):
        assert np.mean(np.abs(P.short_training_field()) ** 2) > 0.1


class TestFullFrame:
    def test_locate_preamble_with_offset(self):
        rng = np.random.default_rng(1)
        data = WifiPhy(WifiPhyConfig(rate_mbps=24)).transmit(b"offset test")
        frame = np.concatenate([P.short_training_field(), data])
        noise = 0.01 * (rng.standard_normal(137) + 1j * rng.standard_normal(137))
        capture = np.concatenate([noise, frame])
        assert P.locate_preamble(capture) == 137
        assert locate_preamble_reference(capture) == 137

    def test_locate_rejects_pure_noise(self):
        rng = np.random.default_rng(2)
        noise = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        with pytest.raises(DecodingError, match="no preamble"):
            P.locate_preamble(noise)

    def test_too_short_capture(self):
        with pytest.raises(DecodingError, match="shorter than the preamble"):
            P.locate_preamble(np.zeros(100, complex))
