"""Tests for the 2.4 GHz band geometry and the jammer's sweep blocks."""

import pytest

from repro.channel import spectrum as S
from repro.errors import ChannelError, ConfigurationError
from repro.jamming.jammer import channel_blocks, split_blocks


class TestOverlap:
    def test_full_overlap(self):
        assert S.overlap_fraction_mhz(2412, 20, 2412, 2) == 2.0

    def test_no_overlap(self):
        assert S.overlap_fraction_mhz(2412, 20, 2480, 2) == 0.0

    def test_partial_overlap(self):
        assert S.overlap_fraction_mhz(2412, 20, 2421.5, 2) == pytest.approx(1.5)

    def test_bad_bandwidth(self):
        with pytest.raises(ChannelError):
            S.overlap_fraction_mhz(2412, 0, 2412, 2)

    def test_inband_fraction_wifi_into_zigbee(self):
        # Co-located: 2 of 20 MHz -> 10 %.
        assert S.inband_power_fraction(0.0, 20, 0.0, 2) == pytest.approx(0.1)

    def test_inband_fraction_off_channel(self):
        assert S.inband_power_fraction(0.0, 20, 30.0, 2) == 0.0


class TestSweepBlocks:
    # The jammer's sweep blocks: ceil(C/m) contiguous blocks of channel
    # indices, as near-equal as the split allows.
    def test_default_partition(self):
        blocks = channel_blocks(16, 4)
        assert len(blocks) == 4
        assert blocks[0] == (0, 1, 2, 3)
        assert blocks[-1] == (12, 13, 14, 15)

    def test_uneven_partition(self):
        blocks = channel_blocks(10, 4)
        assert blocks == [(0, 1, 2), (3, 4, 5), (6, 7, 8, 9)]

    def test_all_channels_covered_once(self):
        for width in range(1, 17):
            blocks = channel_blocks(16, width)
            assert len(blocks) == -(-16 // width)
            flat = [c for b in blocks for c in b]
            assert flat == list(range(16))

    def test_bad_width(self):
        with pytest.raises(ConfigurationError, match="non-empty sweep blocks"):
            split_blocks(4, 5)
