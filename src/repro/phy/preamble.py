"""802.11a/g legacy short training field and frame-start detection.

The DATA-field chain in :mod:`repro.phy.wifi` is all the emulation attack
needs. A receiver still has to find where a frame starts: this module
builds the L-STF (the 8 µs short training field that opens every legacy
frame) and locates it in a capture by sliding correlation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.phy import ofdm

#: Short-training-field frequency loading: subcarrier index -> value/scale.
_STF_SIGNS = {
    -24: 1, -20: -1, -16: 1, -12: -1, -8: -1, -4: 1,
    4: -1, 8: -1, 12: 1, 16: 1, 20: 1, 24: 1,
}


def short_training_field() -> np.ndarray:
    """The 160-sample L-STF: ten repetitions of a 16-sample sequence."""
    spectrum = np.zeros(ofdm.FFT_SIZE, dtype=np.complex128)
    scale = np.sqrt(13.0 / 6.0) * (1.0 + 1.0j)
    for k, sign in _STF_SIGNS.items():
        spectrum[k % ofdm.FFT_SIZE] = sign * scale
    period = np.fft.ifft(spectrum) * np.sqrt(ofdm.FFT_SIZE)
    # The loading has period 16; tile the first period ten times.
    return np.tile(period[:16], 10)


def locate_preamble(samples: np.ndarray, *, threshold: float = 0.8) -> int:
    """Find the frame start by correlating against the known L-STF.

    Returns the sample index of the STF start. Raises
    :class:`~repro.errors.DecodingError` when no sufficiently-correlated
    position exists.

    The sliding correlation runs as one :func:`numpy.correlate` (whose
    inner dot is the very same kernel as the reference's per-window
    ``np.vdot``) plus a windowed energy sum, so scores — and hence the
    returned index — are bit-identical to the per-window scan in
    ``tests/oracles/kernels.py``.
    """
    wf = np.asarray(samples, dtype=np.complex128).ravel()
    stf = short_training_field()
    if wf.size < stf.size:
        raise DecodingError("capture shorter than the preamble")
    ref_energy = float(np.sum(np.abs(stf) ** 2))
    # numerator[i] == |vdot(stf, wf[i:i+len(stf)])| for every window.
    numerator = np.abs(np.correlate(wf, stf, mode="valid"))
    windows = np.lib.stride_tricks.sliding_window_view(wf, stf.size)
    win_energy = (np.abs(windows) ** 2).sum(axis=1)
    corr = np.zeros(numerator.size, dtype=np.float64)
    live = win_energy > 0.0
    corr[live] = numerator[live] / np.sqrt(ref_energy * win_energy[live])
    best_idx = -1
    best_corr = 0.0
    if corr.size:
        # First index strictly improving on 0.0, matching the reference's
        # `corr > best_corr` scan order.
        k = int(np.argmax(corr))
        if corr[k] > 0.0:
            # argmax returns the first maximal index — the same window the
            # sequential strict-improvement scan settles on.
            best_idx, best_corr = k, float(corr[k])
    if best_corr < threshold:
        raise DecodingError(
            f"no preamble found (best correlation {best_corr:.2f})"
        )
    return best_idx


__all__ = [
    "short_training_field",
    "locate_preamble",
]
