"""ZigBee (IEEE 802.15.4) frame format — paper Fig. 3.

A PPDU is::

    preamble (0x00000000) | SFD (0x7A) | PHR (1 octet) | PSDU (<= 127 octets)

The PSDU carries the MAC payload plus a 2-octet CRC-16/ITU-T frame check
sequence. The paper's stealthiness argument hinges on this format: an
EmuBee jamming burst *looks like* ZigBee chips, so the victim radio locks on
and "decodes" it, burning receiver time, but no valid frame ever emerges —
:class:`FrameListener` models exactly that busy-but-fruitless behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.constants import ZIGBEE_MAX_PSDU, ZIGBEE_PREAMBLE, ZIGBEE_SFD
from repro.errors import DecodingError
from repro.phy.bits import check_crc

#: Octets of framing before the PSDU: preamble + SFD + PHR.
HEADER_OCTETS = len(ZIGBEE_PREAMBLE) + 2

#: FCS length in octets.
FCS_OCTETS = 2


@dataclass(frozen=True)
class ZigBeeFrame:
    """A decoded ZigBee frame."""

    payload: bytes

    @property
    def psdu_length(self) -> int:
        return len(self.payload) + FCS_OCTETS

    @property
    def ppdu_length(self) -> int:
        return HEADER_OCTETS + self.psdu_length


def decode_frame(ppdu: bytes) -> ZigBeeFrame:
    """Parse and validate a PPDU (preamble, SFD, PHR, PSDU with its FCS).

    Raises :class:`~repro.errors.DecodingError` describing the first format
    violation found — the same failure modes a CC26X2 radio reports.
    """
    ppdu = bytes(ppdu)
    if len(ppdu) < HEADER_OCTETS + FCS_OCTETS:
        raise DecodingError("PPDU shorter than the minimum frame")
    if ppdu[: len(ZIGBEE_PREAMBLE)] != ZIGBEE_PREAMBLE:
        raise DecodingError("preamble mismatch")
    if ppdu[len(ZIGBEE_PREAMBLE)] != ZIGBEE_SFD:
        raise DecodingError("start-of-frame delimiter missing")
    psdu_len = ppdu[len(ZIGBEE_PREAMBLE) + 1]
    if psdu_len > ZIGBEE_MAX_PSDU:
        raise DecodingError(f"PHR declares oversize PSDU ({psdu_len} octets)")
    if psdu_len < FCS_OCTETS:
        raise DecodingError(f"PHR declares undersize PSDU ({psdu_len} octets)")
    psdu = ppdu[HEADER_OCTETS : HEADER_OCTETS + psdu_len]
    if len(psdu) != psdu_len:
        raise DecodingError(
            f"truncated PSDU: PHR declares {psdu_len} octets, "
            f"{len(psdu)} present"
        )
    if not check_crc(psdu):
        raise DecodingError("frame check sequence failed")
    return ZigBeeFrame(payload=psdu[:-FCS_OCTETS])


class ListenOutcome(enum.Enum):
    """What a receiver got out of a burst of air time."""

    IDLE = "idle"
    FRAME = "frame"
    #: Energy detected and chips locked, but no valid frame emerged — the
    #: EmuBee stealth case: the radio was busy decoding nothing.
    OCCUPIED = "occupied"


@dataclass(frozen=True)
class ListenReport:
    """Result of :meth:`FrameListener.listen`."""

    outcome: ListenOutcome
    frame: ZigBeeFrame | None
    busy_octets: int
    error: str | None = None


class FrameListener:
    """Models a ZigBee receiver's front end processing one air burst.

    The radio synchronises on anything that looks like a preamble, then
    spends receiver time on however many octets follow, whether or not they
    form a valid frame. ``busy_octets`` quantifies the stolen time — the
    stealthy denial-of-service the paper describes ("the hardware resource
    is being occupied and cannot be used to process other packets").
    """

    def listen(self, burst: bytes | None) -> ListenReport:
        """Process one burst of received octets (``None`` = silent air)."""
        if not burst:
            return ListenReport(ListenOutcome.IDLE, None, busy_octets=0)
        burst = bytes(burst)
        sync = burst.find(ZIGBEE_PREAMBLE)
        if sync < 0:
            # Nothing resembling a preamble: energy is dismissed as noise
            # almost immediately.
            return ListenReport(
                ListenOutcome.OCCUPIED, None, busy_octets=1, error="no preamble"
            )
        candidate = burst[sync:]
        try:
            frame = decode_frame(candidate)
        except DecodingError as exc:
            # The radio consumed the whole burst trying to decode it.
            return ListenReport(
                ListenOutcome.OCCUPIED,
                None,
                busy_octets=len(candidate),
                error=str(exc),
            )
        return ListenReport(
            ListenOutcome.FRAME, frame, busy_octets=frame.ppdu_length
        )


__all__ = [
    "HEADER_OCTETS",
    "FCS_OCTETS",
    "ZigBeeFrame",
    "decode_frame",
    "ListenOutcome",
    "ListenReport",
    "FrameListener",
]
