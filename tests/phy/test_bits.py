"""Unit and property tests for repro.phy.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.phy import bits as B
from tests.oracles.kernels import crc16_itut_reference
from tests.oracles.rx import append_crc


class TestAsBits:
    def test_accepts_list(self):
        out = B.as_bits([0, 1, 1, 0])
        assert out.dtype == np.uint8
        assert out.tolist() == [0, 1, 1, 0]

    def test_rejects_non_binary(self):
        with pytest.raises(EncodingError):
            B.as_bits([0, 2])

    def test_empty(self):
        assert B.as_bits([]).size == 0

    def test_flattens(self):
        assert B.as_bits([[0, 1], [1, 0]]).shape == (4,)


class TestBytesBits:
    def test_known_value_lsb(self):
        # 0x01 -> LSB first: 1 0 0 0 0 0 0 0
        assert B.bytes_to_bits(b"\x01").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_known_value_msb(self):
        assert B.bytes_to_bits(b"\x80", lsb_first=False).tolist() == [
            1, 0, 0, 0, 0, 0, 0, 0,
        ]

    def test_empty(self):
        assert B.bytes_to_bits(b"").size == 0
        assert B.bits_to_bytes([]) == b""

    def test_non_octet_length_rejected(self):
        with pytest.raises(EncodingError):
            B.bits_to_bytes([1, 0, 1])

    @given(st.binary(max_size=64))
    def test_roundtrip_lsb(self, data):
        assert B.bits_to_bytes(B.bytes_to_bits(data)) == data

    @given(st.binary(max_size=64))
    def test_roundtrip_msb(self, data):
        bits = B.bytes_to_bits(data, lsb_first=False)
        assert B.bits_to_bytes(bits, lsb_first=False) == data


class TestCrc:
    def test_known_vector(self):
        # CRC-16/X25-family reflected CRC with init 0: '123456789' -> 0x2189
        # is the CRC-16/KERMIT check value, which is this polynomial/config.
        assert B.crc16_itut(b"123456789") == 0x2189

    def test_empty(self):
        assert B.crc16_itut(b"") == 0

    @given(st.binary(min_size=1, max_size=64))
    def test_append_check_roundtrip(self, data):
        assert B.check_crc(append_crc(data))

    @given(st.binary(min_size=1, max_size=32), st.integers(0, 255))
    def test_corruption_detected(self, data, flip):
        framed = bytearray(append_crc(data))
        pos = flip % len(framed)
        bit = 1 << (flip % 8)
        framed[pos] ^= bit
        assert not B.check_crc(bytes(framed))

    def test_too_short(self):
        assert not B.check_crc(b"\x00")


class TestVectorizedAgainstReferences:
    """The table-driven CRC equals the retained bit-serial loop."""

    @given(data=st.binary(min_size=0, max_size=200), initial=st.integers(0, 0xFFFF))
    def test_crc16_table_matches_bit_serial(self, data, initial):
        assert B.crc16_itut(data, initial=initial) == (
            crc16_itut_reference(data, initial=initial)
        )

    def test_crc16_known_vector(self):
        # CRC-16/KERMIT check value for "123456789".
        assert B.crc16_itut(b"123456789") == 0x2189
        assert crc16_itut_reference(b"123456789") == 0x2189
