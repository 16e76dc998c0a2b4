"""IEEE 802.11 two-permutation block interleaver.

Coded bits are interleaved per OFDM symbol (block size ``n_cbps`` — coded
bits per symbol). The first permutation maps adjacent coded bits onto
non-adjacent subcarriers; the second rotates bits within a subcarrier's
constellation word so long runs don't land on low-reliability bit positions.

The emulation pipeline (paper Fig. 1) runs the inverse permutation
("deinterleaving") on quantized constellation bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import EncodingError
from repro.phy.bits import BitArray, as_bits

#: Number of interleaver columns defined by the standard.
NUM_COLUMNS = 16


@lru_cache(maxsize=None)
def _permutation_cached(n_cbps: int, n_bpsc: int) -> np.ndarray:
    if n_cbps <= 0 or n_cbps % NUM_COLUMNS:
        raise EncodingError(
            f"n_cbps must be a positive multiple of {NUM_COLUMNS}, got {n_cbps}"
        )
    if n_bpsc <= 0 or n_cbps % n_bpsc:
        raise EncodingError(
            f"n_bpsc must divide n_cbps, got n_bpsc={n_bpsc}, n_cbps={n_cbps}"
        )
    s = max(n_bpsc // 2, 1)
    k = np.arange(n_cbps)
    # First permutation.
    i = (n_cbps // NUM_COLUMNS) * (k % NUM_COLUMNS) + k // NUM_COLUMNS
    # Second permutation.
    j = s * (i // s) + (i + n_cbps - (NUM_COLUMNS * i) // n_cbps) % s
    perm = j.astype(np.int64)
    perm.setflags(write=False)
    return perm


def interleave(bits: "np.typing.ArrayLike", n_cbps: int, n_bpsc: int) -> BitArray:
    """Interleave one or more ``n_cbps``-bit blocks."""
    arr = as_bits(bits)
    if arr.size % n_cbps:
        raise EncodingError(
            f"input length {arr.size} is not a multiple of the block size {n_cbps}"
        )
    perm = _permutation_cached(int(n_cbps), int(n_bpsc))
    out = np.empty_like(arr)
    out.reshape(-1, n_cbps)[:, perm] = arr.reshape(-1, n_cbps)
    return out


def deinterleave(bits: "np.typing.ArrayLike", n_cbps: int, n_bpsc: int) -> BitArray:
    """Invert :func:`interleave` on one or more blocks."""
    arr = as_bits(bits)
    if arr.size % n_cbps:
        raise EncodingError(
            f"input length {arr.size} is not a multiple of the block size {n_cbps}"
        )
    perm = _permutation_cached(int(n_cbps), int(n_bpsc))
    return arr.reshape(-1, n_cbps)[:, perm].reshape(-1)


__all__ = [
    "NUM_COLUMNS",
    "interleave",
    "deinterleave",
]
