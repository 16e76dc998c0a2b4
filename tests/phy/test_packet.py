"""Tests for the ZigBee frame format and the stealthy-decode model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import ZIGBEE_MAX_PSDU, ZIGBEE_PREAMBLE, ZIGBEE_SFD
from repro.errors import DecodingError, EncodingError
from repro.phy import packet as P
from tests.oracles.rx import encode_frame


class TestEncode:
    def test_layout(self):
        ppdu = encode_frame(b"AB")
        assert ppdu[:4] == b"\x00\x00\x00\x00"
        assert ppdu[4] == ZIGBEE_SFD
        assert ppdu[5] == 4  # 2 payload + 2 FCS
        assert ppdu[6:8] == b"AB"

    def test_empty_payload(self):
        ppdu = encode_frame(b"")
        assert ppdu[5] == 2
        assert P.decode_frame(ppdu).payload == b""

    def test_max_payload(self):
        payload = bytes(ZIGBEE_MAX_PSDU - 2)
        assert P.decode_frame(encode_frame(payload)).payload == payload

    def test_oversize_rejected(self):
        with pytest.raises(EncodingError):
            encode_frame(bytes(ZIGBEE_MAX_PSDU - 1))

    @given(st.binary(max_size=125))
    def test_roundtrip(self, payload):
        frame = P.decode_frame(encode_frame(payload))
        assert frame.payload == payload
        assert frame.ppdu_length == 6 + len(payload) + 2


class TestDecodeFailures:
    def test_too_short(self):
        with pytest.raises(DecodingError, match="shorter"):
            P.decode_frame(b"\x00\x00")

    def test_bad_preamble(self):
        ppdu = bytearray(encode_frame(b"x"))
        ppdu[0] = 0xFF
        with pytest.raises(DecodingError, match="preamble"):
            P.decode_frame(bytes(ppdu))

    def test_missing_sfd(self):
        ppdu = bytearray(encode_frame(b"x"))
        ppdu[4] = 0x00
        with pytest.raises(DecodingError, match="delimiter"):
            P.decode_frame(bytes(ppdu))

    def test_truncated_psdu(self):
        ppdu = encode_frame(b"hello")
        with pytest.raises(DecodingError, match="truncated"):
            P.decode_frame(ppdu[:-2])

    def test_crc_failure(self):
        ppdu = bytearray(encode_frame(b"hello"))
        ppdu[7] ^= 0x01
        with pytest.raises(DecodingError, match="check sequence"):
            P.decode_frame(bytes(ppdu))

    def test_oversize_phr(self):
        ppdu = bytearray(encode_frame(b"x"))
        ppdu[5] = 200
        with pytest.raises(DecodingError, match="oversize"):
            P.decode_frame(bytes(ppdu))

    def test_undersize_phr(self):
        ppdu = bytearray(encode_frame(b"x"))
        ppdu[5] = 1
        with pytest.raises(DecodingError, match="undersize"):
            P.decode_frame(bytes(ppdu))


class TestFrameListener:
    """The paper's stealthiness model: EmuBee bursts look like ZigBee but
    never yield a frame, keeping the radio busy (paper §II-A-2)."""

    def test_idle_air(self):
        rep = P.FrameListener().listen(None)
        assert rep.outcome is P.ListenOutcome.IDLE
        assert rep.busy_octets == 0

    def test_valid_frame(self):
        rep = P.FrameListener().listen(encode_frame(b"data"))
        assert rep.outcome is P.ListenOutcome.FRAME
        assert rep.frame is not None and rep.frame.payload == b"data"
        assert rep.busy_octets == rep.frame.ppdu_length

    def test_emubee_burst_occupies_radio(self):
        # A preamble followed by garbage — the classic EmuBee jamming burst:
        # the radio syncs, decodes, finds nothing, and the time is gone.
        burst = ZIGBEE_PREAMBLE + bytes(40)
        rep = P.FrameListener().listen(burst)
        assert rep.outcome is P.ListenOutcome.OCCUPIED
        assert rep.frame is None
        assert rep.busy_octets == len(burst)
        assert rep.error is not None

    def test_preamble_only(self):
        # Paper: "if a ZigBee packet only has the preamble ... nothing can
        # be decoded" yet the hardware is occupied.
        rep = P.FrameListener().listen(ZIGBEE_PREAMBLE + bytes(3))
        assert rep.outcome is P.ListenOutcome.OCCUPIED
        assert rep.busy_octets > 0

    def test_noise_without_preamble_dismissed_quickly(self):
        rep = P.FrameListener().listen(b"\xaa\x55" * 30)
        assert rep.outcome is P.ListenOutcome.OCCUPIED
        assert rep.busy_octets == 1  # dismissed almost immediately

    def test_frame_after_leading_noise(self):
        burst = b"\x99\x77" + encode_frame(b"ok")
        rep = P.FrameListener().listen(burst)
        assert rep.outcome is P.ListenOutcome.FRAME
        assert rep.frame.payload == b"ok"
