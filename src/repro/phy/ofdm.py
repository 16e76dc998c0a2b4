"""64-point OFDM modem of IEEE 802.11a/g.

Each OFDM symbol carries 48 data subcarriers and 4 pilots out of a 64-point
IFFT, preceded by a 16-sample cyclic prefix, at 20 Msample/s. The emulation
attack operates on exactly this grid: a designed ZigBee waveform is chopped
into 64-sample blocks, FFT'd, and its per-subcarrier values quantized onto
the 64-QAM lattice (paper Fig. 1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError

#: IFFT size.
FFT_SIZE = 64

#: Cyclic-prefix length in samples.
CP_LENGTH = 16

#: Samples per full OFDM symbol.
SYMBOL_LENGTH = FFT_SIZE + CP_LENGTH

#: Sample rate of the 20 MHz channel, in samples/second.
SAMPLE_RATE = 20e6

#: Pilot subcarrier indices (FFT bin numbers, negative = upper half).
PILOT_INDICES = (-21, -7, 7, 21)

#: Data subcarrier indices: -26..26 excluding 0 and the pilots (48 total).
DATA_INDICES = tuple(
    k for k in range(-26, 27) if k != 0 and k not in PILOT_INDICES
)

#: Pilot polarity base pattern on subcarriers (-21, -7, 7, 21).
PILOT_VALUES = np.array([1.0, 1.0, 1.0, -1.0])

#: First 127 elements of the pilot polarity scrambling sequence p_n
#: (IEEE 802.11-2016 Eq. 17-25); reused cyclically.
_POLARITY = np.array(
    [1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1, -1, -1, 1, 1, -1,
     1, 1, -1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1,
     1, -1, -1, -1, 1, -1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1, -1, -1, 1, 1,
     -1, -1, 1, -1, 1, -1, 1, 1, -1, -1, -1, 1, 1, -1, -1, -1, -1, 1, -1, -1,
     1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, -1, 1, 1,
     -1, 1, -1, 1, 1, 1, -1, -1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1,
     -1, -1],
    dtype=np.float64,
)


def _bin_index(k: int) -> int:
    """Convert a signed subcarrier index to an FFT bin (0..63)."""
    return k % FFT_SIZE


_DATA_BINS = np.array([_bin_index(k) for k in DATA_INDICES], dtype=np.int64)
_PILOT_BINS = np.array([_bin_index(k) for k in PILOT_INDICES], dtype=np.int64)


def pilot_polarity(symbol_index: int) -> float:
    """Polarity p_n applied to the pilots of OFDM symbol ``symbol_index``."""
    return float(_POLARITY[symbol_index % _POLARITY.size])


def modulate_symbol(
    data: np.ndarray, symbol_index: int = 0, *, include_cp: bool = True
) -> np.ndarray:
    """Build the time-domain OFDM symbol carrying ``data`` (48 symbols)."""
    data = np.asarray(data, dtype=np.complex128).ravel()
    if data.size != len(DATA_INDICES):
        raise EncodingError(
            f"expected {len(DATA_INDICES)} data symbols, got {data.size}"
        )
    spectrum = np.zeros(FFT_SIZE, dtype=np.complex128)
    spectrum[_DATA_BINS] = data
    spectrum[_PILOT_BINS] = PILOT_VALUES * pilot_polarity(symbol_index)
    time = np.fft.ifft(spectrum) * np.sqrt(FFT_SIZE)
    if include_cp:
        return np.concatenate([time[-CP_LENGTH:], time])
    return time


def demodulate_symbol(
    samples: np.ndarray, *, has_cp: bool = True
) -> np.ndarray:
    """Recover the 48 data-subcarrier values from one OFDM symbol."""
    spectrum = spectrum_of(samples, has_cp=has_cp)
    return spectrum[_DATA_BINS]


def spectrum_of(samples: np.ndarray, *, has_cp: bool = True) -> np.ndarray:
    """FFT of one OFDM symbol, normalised to undo the modulator scaling."""
    samples = np.asarray(samples, dtype=np.complex128).ravel()
    expected = SYMBOL_LENGTH if has_cp else FFT_SIZE
    if samples.size != expected:
        raise EncodingError(
            f"expected {expected} samples for one OFDM symbol, got {samples.size}"
        )
    body = samples[CP_LENGTH:] if has_cp else samples
    return np.fft.fft(body) / np.sqrt(FFT_SIZE)


def modulate_stream(data: np.ndarray) -> np.ndarray:
    """Concatenate OFDM symbols for a (n_symbols, 48) data array."""
    data = np.asarray(data, dtype=np.complex128)
    if data.ndim != 2 or data.shape[1] != len(DATA_INDICES):
        raise EncodingError(
            f"expected shape (n, {len(DATA_INDICES)}), got {data.shape}"
        )
    return np.concatenate(
        [modulate_symbol(row, i) for i, row in enumerate(data)]
    )


__all__ = [
    "FFT_SIZE",
    "CP_LENGTH",
    "SYMBOL_LENGTH",
    "SAMPLE_RATE",
    "PILOT_INDICES",
    "DATA_INDICES",
    "PILOT_VALUES",
    "pilot_polarity",
    "modulate_symbol",
    "demodulate_symbol",
    "spectrum_of",
    "modulate_stream",
]
