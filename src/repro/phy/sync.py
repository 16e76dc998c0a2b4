"""ZigBee preamble search over chip streams.

A real receiver watches a continuous chip stream and hunts for the
8-symbol preamble (0x00000000) before it locks on the start-of-frame
delimiter (0x7A), reads the PHR and decodes the PSDU. This module holds
the preamble search, the step the EmuBee stealth attack exploits: a
preamble with no valid SFD/PSDU still captures the receiver (paper
§II-A-2). The rest of that state machine is the receive oracle in
``tests/oracles/rx.py``.
"""

from __future__ import annotations

import numpy as np

from repro.phy import zigbee

#: Minimum consecutive zero symbols to declare preamble lock (receivers
#: typically sync on a suffix of the preamble: eight zero data symbols,
#: four zero octets).
MIN_PREAMBLE_SYMBOLS = 4

#: Maximum per-symbol chip errors tolerated during symbol-aligned search.
SEARCH_CHIP_TOLERANCE = 8


def _zero_symbol_distances(arr: np.ndarray) -> np.ndarray:
    """Hamming distance to the zero symbol at every chip offset.

    ``out[o]`` is the distance of ``arr[o : o+32]`` to ``CHIP_TABLE[0]``
    for every offset with a full window — the sliding correlation the
    continuous preamble search runs, computed as one windowed compare.
    """
    window = zigbee.CHIPS_PER_SYMBOL
    if arr.size < window:
        return np.zeros(0, dtype=np.int64)
    views = np.lib.stride_tricks.sliding_window_view(arr, window)
    return (views != zigbee.CHIP_TABLE[0]).sum(axis=1, dtype=np.int64)


def find_preamble(
    chips: np.ndarray, *, start: int = 0, tolerance: int = SEARCH_CHIP_TOLERANCE
) -> int | None:
    """Chip index of the first run of zero symbols long enough to sync.

    Scans every chip offset (real receivers correlate continuously — the
    frame is not chip-aligned to anything). The O(N·L) scan is a windowed
    compare over all offsets at once; the result is bit-identical to the
    per-offset scan in ``tests/oracles/kernels.py``.
    """
    arr = np.asarray(chips, dtype=np.uint8).ravel()
    window = zigbee.CHIPS_PER_SYMBOL
    needed = MIN_PREAMBLE_SYMBOLS
    limit = arr.size - needed * window
    if limit < start:
        return None
    dist = _zero_symbol_distances(arr)
    ok = dist <= tolerance
    # A sync at offset o needs `needed` consecutive aligned zero symbols:
    # ok[o] & ok[o + 32] & ... & ok[o + (needed-1)*32].
    hits = ok[start : limit + 1].copy()
    for k in range(1, needed):
        hits &= ok[start + k * window : limit + 1 + k * window]
    idx = np.flatnonzero(hits)
    if idx.size == 0:
        return None
    return start + int(idx[0])


__all__ = [
    "MIN_PREAMBLE_SYMBOLS",
    "SEARCH_CHIP_TOLERANCE",
    "find_preamble",
]
