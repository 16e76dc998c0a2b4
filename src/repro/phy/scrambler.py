"""IEEE 802.11 frame-synchronous scrambler.

802.11a/g whitens the DATA field with a length-127 pseudo-random sequence
generated by the LFSR x^7 + x^4 + 1. Scrambling is an involution (XOR with
the same sequence), so the same routine serves the emulation pipeline's
*descrambling* stage (paper Fig. 1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError
from repro.phy.bits import BitArray, as_bits

#: Default initial LFSR state used by the reference transmitter (any non-zero
#: 7-bit value is legal; receivers recover it from the SERVICE field).
DEFAULT_SEED = 0b1011101


def scrambler_sequence(length: int, seed: int = DEFAULT_SEED) -> BitArray:
    """Generate ``length`` bits of the 802.11 scrambling sequence.

    The LFSR state is 7 bits; each output bit is x7 XOR x4, which is also
    fed back into the register.
    """
    if length < 0:
        raise EncodingError(f"sequence length must be non-negative, got {length}")
    if not 0 < seed < 128:
        raise EncodingError(f"scrambler seed must be a non-zero 7-bit value, got {seed}")
    state = [(seed >> i) & 1 for i in range(7)]  # state[0] = x1 ... state[6] = x7
    out = np.empty(length, dtype=np.uint8)
    for i in range(length):
        bit = state[6] ^ state[3]  # x7 XOR x4
        out[i] = bit
        state = [bit] + state[:6]
    return out


def scramble(bits: "np.typing.ArrayLike", seed: int = DEFAULT_SEED) -> BitArray:
    """Scramble (or descramble) ``bits`` with the sequence for ``seed``."""
    arr = as_bits(bits)
    seq = scrambler_sequence(arr.size, seed)
    return (arr ^ seq).astype(np.uint8)


# Descrambling is the same XOR; expose an alias for call-site clarity.
descramble = scramble


__all__ = [
    "DEFAULT_SEED",
    "scrambler_sequence",
    "scramble",
    "descramble",
]
