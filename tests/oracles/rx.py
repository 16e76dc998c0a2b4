"""The receive half of the PHY chains, for TX round-trip checks.

The library transmits: :class:`~repro.phy.wifi.WifiPhy` and
:class:`~repro.phy.zigbee.ZigBeePhy` turn payloads into baseband, and the
emulator turns designed ZigBee waveforms into Wi-Fi payloads. What a
receiver does with those samples lives here, so the tests can hold the
transmit paths to a decode:

* :func:`encode_frame` builds the 802.15.4 PPDU (preamble, SFD, PHR, PSDU
  with its CRC-16 FCS) that :func:`repro.phy.packet.decode_frame` parses;
* :func:`synchronise` runs a ZigBee receiver's state machine over a
  free-running chip stream: hunt the preamble, lock the SFD, read the PHR,
  decode the PSDU. A preamble with no valid SFD/PSDU still captures the
  receiver, which is what the EmuBee stealth attack exploits (paper
  §II-A-2);
* :func:`wifi_receive` and :func:`zigbee_receive` demodulate what the two
  PHYs transmit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import ZIGBEE_MAX_PSDU, ZIGBEE_PREAMBLE, ZIGBEE_SFD
from repro.errors import DecodingError, EncodingError
from repro.phy import ofdm, zigbee
from repro.phy.bits import check_crc, crc16_itut
from repro.phy.packet import FCS_OCTETS, ZigBeeFrame
from repro.phy.sync import SEARCH_CHIP_TOLERANCE, find_preamble
from repro.phy.wifi import WifiPhy
from repro.phy.zigbee import ZigBeePhy
from tests.oracles.kernels import _correlate_symbol


def append_crc(data: bytes) -> bytes:
    """Return ``data`` with its little-endian CRC-16/ITU-T appended."""
    crc = crc16_itut(data)
    return bytes(data) + bytes((crc & 0xFF, crc >> 8))


def encode_frame(payload: bytes) -> bytes:
    """Build the full PPDU for ``payload`` (MAC payload without FCS)."""
    payload = bytes(payload)
    psdu_len = len(payload) + FCS_OCTETS
    if psdu_len > ZIGBEE_MAX_PSDU:
        raise EncodingError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{ZIGBEE_MAX_PSDU - FCS_OCTETS}-byte PSDU capacity"
        )
    psdu = append_crc(payload)
    return ZIGBEE_PREAMBLE + bytes((ZIGBEE_SFD, psdu_len)) + psdu


@dataclass(frozen=True)
class SyncResult:
    """Outcome of a frame search over a chip stream."""

    frame: ZigBeeFrame | None
    #: Chip index where the detected preamble begins.
    sync_chip_index: int
    #: Number of data symbols the receiver spent busy (preamble through
    #: PSDU or abort point) — the stealth-attack cost metric.
    busy_symbols: int
    #: Why no frame was produced (None on success).
    error: str | None


def _decode_symbols(chips: np.ndarray, offset: int, count: int) -> np.ndarray | None:
    """Despread ``count`` symbols at chip ``offset``; None if out of chips."""
    window = zigbee.CHIPS_PER_SYMBOL
    end = offset + count * window
    if end > chips.size:
        return None
    symbols, _ = zigbee.despread(chips[offset:end])
    return symbols


def synchronise(chips: "np.typing.ArrayLike") -> SyncResult:
    """Run the full receiver state machine over a chip stream.

    Search preamble → skip remaining preamble symbols → expect SFD → read
    PHR → decode PSDU → CRC check. Any failure reports how long the radio
    stayed busy, which is the stealthy-jamming damage metric.
    """
    arr = np.asarray(chips, dtype=np.uint8).ravel()
    window = zigbee.CHIPS_PER_SYMBOL
    sync = find_preamble(arr)
    if sync is None:
        return SyncResult(None, -1, 0, "no preamble found")

    # Consume the rest of the preamble run.
    cursor = sync
    zero_run = 0
    while True:
        seg = arr[cursor : cursor + window]
        if seg.size < window or _correlate_symbol(seg, 0) > SEARCH_CHIP_TOLERANCE:
            break
        zero_run += 1
        cursor += window
    busy = zero_run

    def fail(reason: str) -> SyncResult:
        return SyncResult(None, sync, busy, reason)

    # SFD: one octet = two symbols (0xA then 0x7, low nibble first).
    sfd_symbols = _decode_symbols(arr, cursor, 2)
    if sfd_symbols is None:
        return fail("stream ended before the SFD")
    busy += 2
    cursor += 2 * window
    sfd = int(sfd_symbols[0]) | (int(sfd_symbols[1]) << 4)
    if sfd != ZIGBEE_SFD:
        return fail(f"SFD mismatch (got 0x{sfd:02X})")

    # PHR: one octet announcing the PSDU length.
    phr_symbols = _decode_symbols(arr, cursor, 2)
    if phr_symbols is None:
        return fail("stream ended before the PHR")
    busy += 2
    cursor += 2 * window
    psdu_len = int(phr_symbols[0]) | (int(phr_symbols[1]) << 4)
    if psdu_len > ZIGBEE_MAX_PSDU or psdu_len < FCS_OCTETS:
        return fail(f"PHR declares invalid length {psdu_len}")

    psdu_symbols = _decode_symbols(arr, cursor, 2 * psdu_len)
    if psdu_symbols is None:
        # The receiver waits for octets that never arrive — the
        # preamble-only stealth attack of paper §II-A-2.
        remaining = (arr.size - cursor) // window
        return SyncResult(None, sync, busy + remaining, "stream ended inside the PSDU")
    busy += 2 * psdu_len
    psdu = zigbee.symbols_to_bytes(psdu_symbols)
    if not check_crc(psdu):
        return fail("frame check sequence failed")
    return SyncResult(ZigBeeFrame(payload=psdu[:-FCS_OCTETS]), sync, busy, None)


def receive_stream(
    waveform: np.ndarray,
    *,
    samples_per_chip: int = zigbee.DEFAULT_SAMPLES_PER_CHIP,
) -> SyncResult:
    """Demodulate a waveform and synchronise on whatever frame it holds."""
    chips = zigbee.oqpsk_demodulate(waveform, samples_per_chip)
    return synchronise(chips)


def demodulate_stream(samples: np.ndarray) -> np.ndarray:
    """Split an OFDM sample stream into symbols and demodulate each.

    Returns a (n_symbols, 48) complex array. The stream length must be a
    multiple of :data:`repro.phy.ofdm.SYMBOL_LENGTH`.
    """
    samples = np.asarray(samples, dtype=np.complex128).ravel()
    length = ofdm.SYMBOL_LENGTH
    if samples.size % length:
        raise EncodingError(
            f"stream length {samples.size} is not a multiple of {length}"
        )
    n = samples.size // length
    out = np.empty((n, len(ofdm.DATA_INDICES)), dtype=np.complex128)
    for i in range(n):
        out[i] = ofdm.demodulate_symbol(samples[i * length : (i + 1) * length])
    return out


def wifi_receive(phy: WifiPhy, samples: np.ndarray, num_bytes: int) -> bytes:
    """Demodulate a sample stream produced by :meth:`WifiPhy.transmit`."""
    return phy.decode_points(demodulate_stream(samples), num_bytes)


@dataclass(frozen=True)
class ZigBeeDecodeResult:
    """Outcome of a waveform-level decode."""

    data: bytes
    chip_error_rate: float
    symbol_errors: np.ndarray  # per-symbol Hamming distance of the winner


def zigbee_receive(
    phy: ZigBeePhy, waveform: np.ndarray, num_bytes: int
) -> ZigBeeDecodeResult:
    """Demodulate and despread a waveform from :meth:`ZigBeePhy.transmit`."""
    chips = zigbee.oqpsk_demodulate(waveform, phy.config.samples_per_chip)
    needed = num_bytes * 2 * zigbee.CHIPS_PER_SYMBOL
    if chips.size < needed:
        raise DecodingError(
            f"waveform carries {chips.size} chips; {needed} needed "
            f"for {num_bytes} bytes"
        )
    chips = chips[:needed]
    symbols, errors = zigbee.despread(chips)
    expected = zigbee.spread(symbols)
    cer = float(np.count_nonzero(chips != expected)) / chips.size
    return ZigBeeDecodeResult(
        data=zigbee.symbols_to_bytes(symbols),
        chip_error_rate=cer,
        symbol_errors=errors,
    )
