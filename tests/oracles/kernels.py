"""The per-step loops the vectorised kernels replaced.

Each shipped kernel in ``repro.phy`` is pinned bit-identical to its loop
here by the equivalence suites, and ``benchmarks/bench_kernels.py`` times
the pair for its speedup stages. The field grid's co-channel interference
factors are held to :func:`all_edge_factors`, the same product over every
directed edge, which it builds from the hub positions alone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.phy import zigbee
from repro.phy.bits import BitArray, as_bits
from repro.phy.convolutional import _NEXT_STATE, _NUM_STATES, _OUTPUTS, _decode_args
from repro.phy.preamble import short_training_field
from repro.phy.sync import MIN_PREAMBLE_SYMBOLS, SEARCH_CHIP_TOLERANCE


def crc16_itut_reference(data: bytes, *, initial: int = 0x0000) -> int:
    """Pre-table :func:`repro.phy.bits.crc16_itut`: the bit-serial shift loop."""
    crc = initial & 0xFFFF
    for octet in bytes(data):
        crc ^= octet
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0x8408  # 0x1021 reflected
            else:
                crc >>= 1
    return crc & 0xFFFF


def conv_encode_reference(bits: "np.typing.ArrayLike") -> BitArray:
    """Per-bit shift-register encoder (``repro.phy.convolutional.conv_encode``)."""
    arr = as_bits(bits)
    out = np.empty(arr.size * 2, dtype=np.uint8)
    state = 0
    for i, bit in enumerate(arr):
        b = int(bit)
        out[2 * i] = _OUTPUTS[state, b, 0]
        out[2 * i + 1] = _OUTPUTS[state, b, 1]
        state = int(_NEXT_STATE[state, b])
    return out


def viterbi_decode_reference(
    coded: "np.typing.ArrayLike",
    *,
    known_mask: np.ndarray | None = None,
    terminated: bool = False,
) -> BitArray:
    """Per-step argsort Viterbi decoder (``repro.phy.convolutional.viterbi_decode``)."""
    arr, known_mask, steps = _decode_args(coded, known_mask)

    inf = np.iinfo(np.int32).max // 2
    metrics = np.full(_NUM_STATES, inf, dtype=np.int64)
    metrics[0] = 0
    survivors = np.zeros((steps, _NUM_STATES), dtype=np.int32)

    out0 = _OUTPUTS[:, :, 0].astype(np.int64)  # (state, bit)
    out1 = _OUTPUTS[:, :, 1].astype(np.int64)
    nxt = _NEXT_STATE  # (state, bit)

    for t in range(steps):
        r0, r1 = int(arr[2 * t]), int(arr[2 * t + 1])
        k0, k1 = bool(known_mask[2 * t]), bool(known_mask[2 * t + 1])
        branch = np.zeros((_NUM_STATES, 2), dtype=np.int64)
        if k0:
            branch += out0 != r0
        if k1:
            branch += out1 != r1
        cand = metrics[:, None] + branch  # (state, bit)
        new_metrics = np.full(_NUM_STATES, inf, dtype=np.int64)
        new_surv = np.zeros(_NUM_STATES, dtype=np.int32)
        flat_next = nxt.ravel()
        flat_cand = cand.ravel()
        order = np.argsort(flat_cand, kind="stable")
        seen = np.zeros(_NUM_STATES, dtype=bool)
        for idx in order:
            ns = flat_next[idx]
            if not seen[ns]:
                seen[ns] = True
                new_metrics[ns] = flat_cand[idx]
                state = idx >> 1
                bit = idx & 1
                new_surv[ns] = (state << 1) | bit
                if seen.all():
                    break
        metrics = new_metrics
        survivors[t] = new_surv

    state = 0 if terminated else int(np.argmin(metrics))
    decoded = np.empty(steps, dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        packed = int(survivors[t, state])
        decoded[t] = packed & 1
        state = packed >> 1
    return decoded


def despread_reference(
    chips: "np.typing.ArrayLike",
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-GEMM :func:`repro.phy.zigbee.despread`: broadcast Hamming compare."""
    window = zigbee.CHIPS_PER_SYMBOL
    arr = as_bits(chips)
    if arr.size % window:
        raise DecodingError(f"chip count {arr.size} is not a multiple of {window}")
    windows = arr.reshape(-1, window)
    # Hamming distance to each candidate sequence.
    dist = (windows[:, None, :] != zigbee.CHIP_TABLE[None, :, :]).sum(axis=2)
    symbols = dist.argmin(axis=1).astype(np.uint8)
    errors = dist.min(axis=1).astype(np.int64)
    return symbols, errors


def _correlate_symbol(chips: np.ndarray, symbol: int) -> int:
    """Hamming distance of a 32-chip window to ``symbol``'s PN sequence."""
    return int(np.count_nonzero(chips != zigbee.CHIP_TABLE[symbol]))


def find_preamble_reference(
    chips: np.ndarray, *, start: int = 0, tolerance: int = SEARCH_CHIP_TOLERANCE
) -> int | None:
    """Pre-vectorization :func:`repro.phy.sync.find_preamble`: per-offset scan."""
    arr = np.asarray(chips, dtype=np.uint8).ravel()
    window = zigbee.CHIPS_PER_SYMBOL
    needed = MIN_PREAMBLE_SYMBOLS
    limit = arr.size - needed * window
    for offset in range(start, max(limit + 1, start)):
        ok = True
        for k in range(needed):
            seg = arr[offset + k * window : offset + (k + 1) * window]
            if seg.size < window or _correlate_symbol(seg, 0) > tolerance:
                ok = False
                break
        if ok:
            return offset
    return None


def locate_preamble_reference(samples: np.ndarray, *, threshold: float = 0.8) -> int:
    """Pre-vectorization :func:`repro.phy.preamble.locate_preamble`: per-window scan."""
    wf = np.asarray(samples, dtype=np.complex128).ravel()
    stf = short_training_field()
    if wf.size < stf.size:
        raise DecodingError("capture shorter than the preamble")
    ref_energy = float(np.sum(np.abs(stf) ** 2))
    best_idx, best_corr = -1, 0.0
    for i in range(wf.size - stf.size + 1):
        window = wf[i : i + stf.size]
        win_energy = float(np.sum(np.abs(window) ** 2))
        if win_energy == 0.0:
            continue
        corr = abs(np.vdot(stf, window)) / np.sqrt(ref_energy * win_energy)
        if corr > best_corr:
            best_corr, best_idx = corr, i
    if best_corr < threshold:
        raise DecodingError(f"no preamble found (best correlation {best_corr:.2f})")
    return best_idx


def directed_edges(
    radius_m: float,
    distance_bin_m: float,
    positions: np.ndarray,
    global_indices: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(victim, source, bin)`` of every in-range ordered pair of networks.

    Brute force over every ordered pair of distinct networks, sorted by
    victim then source global index; ``bin`` is the distance bin.
    """
    order = np.argsort(np.asarray(global_indices), kind="stable")
    vic, src, bins = [], [], []
    for v in order:
        dist = np.hypot(
            positions[order, 0] - positions[v, 0],
            positions[order, 1] - positions[v, 1],
        )
        keep = (order != v) & (dist <= radius_m)
        vic.append(np.full(int(keep.sum()), v))
        src.append(order[keep])
        bins.append((dist[keep] // distance_bin_m).astype(np.intp))
    return np.concatenate(vic), np.concatenate(src), np.concatenate(bins)


def all_edge_factors(
    per: np.ndarray,
    edges: tuple[np.ndarray, np.ndarray, np.ndarray],
    channels: np.ndarray,
    powers: np.ndarray,
) -> np.ndarray:
    """Every directed edge multiplied in, 1.0 where not co-channel.

    ``per`` is the ``(bin, source power, victim power)`` PER grid and
    ``edges`` what :func:`directed_edges` returns for the field.
    """
    vic, src, bins = edges
    out = np.ones(len(channels))
    co = channels[src] == channels[vic]
    factor = np.where(co, 1.0 - per[bins, powers[src], powers[vic]], 1.0)
    np.multiply.at(out, vic, factor)
    return out
