"""Bit-level utilities shared by both PHY chains.

All bit arrays in the library are 1-D :class:`numpy.ndarray` of dtype
``uint8`` containing only 0s and 1s. Helpers here convert between bytes and
bits, validate bit arrays, and compute the CRC-16/ITU-T frame check sequence
that IEEE 802.15.4 appends to every PSDU.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError

BitArray = np.ndarray


def as_bits(bits: "np.typing.ArrayLike") -> BitArray:
    """Coerce ``bits`` to a validated uint8 bit array.

    Raises :class:`~repro.errors.EncodingError` if any element is not 0/1.
    """
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size and arr.max(initial=0) > 1:
        raise EncodingError("bit array contains values other than 0 and 1")
    return arr


def bytes_to_bits(data: bytes, *, lsb_first: bool = True) -> BitArray:
    """Expand ``data`` into a bit array.

    Both 802.15.4 and 802.11 serialise octets least-significant-bit first,
    which is the default here.
    """
    if not data:
        return np.zeros(0, dtype=np.uint8)
    octets = np.frombuffer(bytes(data), dtype=np.uint8)
    bits = np.unpackbits(octets, bitorder="little" if lsb_first else "big")
    return bits.astype(np.uint8)


def bits_to_bytes(bits: "np.typing.ArrayLike", *, lsb_first: bool = True) -> bytes:
    """Pack a bit array (length divisible by 8) back into bytes."""
    arr = as_bits(bits)
    if arr.size % 8:
        raise EncodingError(f"bit length {arr.size} is not a multiple of 8")
    packed = np.packbits(arr, bitorder="little" if lsb_first else "big")
    return packed.tobytes()


def _build_crc16_table() -> np.ndarray:
    """256-entry lookup table for the reflected 0x1021 polynomial.

    Each entry is the CRC state transition of one input octet, generated
    with the bit-serial recurrence the table replaces.
    """
    table = np.empty(256, dtype=np.uint16)
    for octet in range(256):
        crc = octet
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0x8408  # 0x1021 reflected
            else:
                crc >>= 1
        table[octet] = crc
    table.setflags(write=False)
    return table


#: Byte-at-a-time CRC-16/ITU-T transition table (reflected 0x1021).
_CRC16_TABLE = _build_crc16_table()


def crc16_itut(data: bytes, *, initial: int = 0x0000) -> int:
    """CRC-16/ITU-T as used for the IEEE 802.15.4 frame check sequence.

    Polynomial x^16 + x^12 + x^5 + 1 (0x1021), bit-reflected implementation
    (LSB-first shifting, as the standard transmits octets LSB first), zero
    initial value. Returns the 16-bit FCS.

    Table-driven: one lookup per octet instead of eight shift steps,
    bit-identical to the bit-serial loop in ``tests/oracles/kernels.py``.
    """
    crc = initial & 0xFFFF
    table = _CRC16_TABLE
    for octet in bytes(data):
        crc = (crc >> 8) ^ int(table[(crc ^ octet) & 0xFF])
    return crc & 0xFFFF


def check_crc(data_with_crc: bytes) -> bool:
    """Validate a payload whose last two octets are its little-endian FCS."""
    if len(data_with_crc) < 2:
        return False
    body, fcs = data_with_crc[:-2], data_with_crc[-2:]
    expected = crc16_itut(body)
    return fcs == bytes((expected & 0xFF, expected >> 8))


__all__ = [
    "BitArray",
    "as_bits",
    "bytes_to_bits",
    "bits_to_bytes",
    "crc16_itut",
    "check_crc",
]
