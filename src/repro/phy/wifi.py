"""IEEE 802.11a/g OFDM PHY transmit chain and its decoder.

Composes the scrambler, convolutional code, interleaver, QAM mapper and OFDM
modem into the full DATA-field signal chain:

    bytes -> SERVICE + data + tail + pad -> scramble -> convolutional encode
          -> puncture -> interleave -> QAM map -> OFDM modulate -> samples

and its inverse from constellation points back to bytes. The preamble and
SIGNAL field are framing around the DATA field and carry no emulated
waveform content, so the emulator (paper Fig. 1) operates purely on this
chain; the decoder accepts the payload length out-of-band exactly as a real
receiver learns it from SIGNAL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodingError, EncodingError
from repro.phy import convolutional, interleaver, ofdm, scrambler
from repro.phy.bits import BitArray, bits_to_bytes, bytes_to_bits
from repro.phy.qam import constellation_for

#: Number of SERVICE bits prepended to the PSDU (all zero; they reveal the
#: scrambler seed to the receiver).
SERVICE_BITS = 16

#: Number of tail bits that drive the convolutional encoder back to state 0.
TAIL_BITS = 6


@dataclass(frozen=True)
class WifiRate:
    """One modulation-and-coding scheme of 802.11a/g."""

    mbps: int
    bits_per_subcarrier: int  # N_BPSC
    code_rate: str

    @property
    def coded_bits_per_symbol(self) -> int:  # N_CBPS
        return self.bits_per_subcarrier * len(ofdm.DATA_INDICES)

    @property
    def data_bits_per_symbol(self) -> int:  # N_DBPS
        num, den = (int(x) for x in self.code_rate.split("/"))
        return self.coded_bits_per_symbol * num // den


#: The eight mandatory/optional rates of 802.11a/g, keyed by Mbit/s.
RATES: dict[int, WifiRate] = {
    6: WifiRate(6, 1, "1/2"),
    9: WifiRate(9, 1, "3/4"),
    12: WifiRate(12, 2, "1/2"),
    18: WifiRate(18, 2, "3/4"),
    24: WifiRate(24, 4, "1/2"),
    36: WifiRate(36, 4, "3/4"),
    48: WifiRate(48, 6, "2/3"),
    54: WifiRate(54, 6, "3/4"),
}


@dataclass(frozen=True)
class WifiPhyConfig:
    """Configuration of the Wi-Fi PHY chain."""

    rate_mbps: int = 54
    scrambler_seed: int = scrambler.DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.rate_mbps not in RATES:
            raise EncodingError(
                f"unsupported 802.11 rate {self.rate_mbps} Mbps; "
                f"choose from {sorted(RATES)}"
            )

    @property
    def rate(self) -> WifiRate:
        return RATES[self.rate_mbps]


class WifiPhy:
    """802.11a/g DATA-field modem: transmit, and decode a constellation grid.

    :meth:`decode_points` inverts :meth:`encode`; demodulating a sample
    stream into that grid lives with the test oracles
    (``tests/oracles/rx.py``).
    """

    def __init__(self, config: WifiPhyConfig | None = None) -> None:
        self.config = config or WifiPhyConfig()
        self._constellation = constellation_for(self.config.rate.bits_per_subcarrier)

    # -- transmit ----------------------------------------------------------

    def build_data_bits(self, payload: bytes) -> tuple[BitArray, int]:
        """Assemble SERVICE + payload + tail + pad; returns (bits, n_symbols)."""
        rate = self.config.rate
        payload_bits = bytes_to_bits(payload)
        length = SERVICE_BITS + payload_bits.size + TAIL_BITS
        n_symbols = -(-length // rate.data_bits_per_symbol)  # ceil division
        total = n_symbols * rate.data_bits_per_symbol
        bits = np.zeros(total, dtype=np.uint8)
        bits[SERVICE_BITS : SERVICE_BITS + payload_bits.size] = payload_bits
        return bits, n_symbols

    def scramble_data(self, bits: BitArray, payload_bits: int) -> BitArray:
        """Scramble the DATA field and re-zero the tail-bit positions.

        The standard scrambles everything, then replaces the six scrambled
        tail bits with zeros so the decoder terminates in state 0.
        """
        out = scrambler.scramble(bits, self.config.scrambler_seed)
        tail_start = SERVICE_BITS + payload_bits
        out[tail_start : tail_start + TAIL_BITS] = 0
        return out

    def encode(self, payload: bytes) -> np.ndarray:
        """Encode ``payload`` into per-symbol constellation points.

        Returns a (n_symbols, 48) complex array — the subcarrier loading
        before OFDM modulation. Exposed separately because the emulator
        compares designed waveforms against this grid.
        """
        rate = self.config.rate
        bits, n_symbols = self.build_data_bits(payload)
        scrambled = self.scramble_data(bits, len(payload) * 8)
        coded = convolutional.encode_with_rate(scrambled, rate.code_rate)
        interleaved = interleaver.interleave(
            coded, rate.coded_bits_per_symbol, rate.bits_per_subcarrier
        )
        symbols = self._constellation.modulate(interleaved)
        return symbols.reshape(n_symbols, len(ofdm.DATA_INDICES))

    def transmit(self, payload: bytes) -> np.ndarray:
        """Produce the complex baseband sample stream for ``payload``."""
        return ofdm.modulate_stream(self.encode(payload))

    # -- receive -----------------------------------------------------------

    def decode_points(self, points: np.ndarray, num_bytes: int) -> bytes:
        """Demap/decode a (n, 48) constellation grid back to payload bytes."""
        rate = self.config.rate
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim != 2 or points.shape[1] != len(ofdm.DATA_INDICES):
            raise DecodingError(f"expected shape (n, 48), got {points.shape}")
        coded = self._constellation.demodulate(points.reshape(-1))
        deinterleaved = interleaver.deinterleave(
            coded, rate.coded_bits_per_symbol, rate.bits_per_subcarrier
        )
        # Pad bits are scrambled, so the encoder does not end in state 0;
        # trace back from the best end state instead.
        scrambled = convolutional.decode_with_rate(
            deinterleaved, rate.code_rate, terminated=False
        )
        bits = scrambler.descramble(scrambled, self.config.scrambler_seed)
        payload_bits = bits[SERVICE_BITS : SERVICE_BITS + num_bytes * 8]
        if payload_bits.size != num_bytes * 8:
            raise DecodingError(
                f"stream too short for {num_bytes} payload bytes"
            )
        return bits_to_bytes(payload_bits)

    # -- bookkeeping ---------------------------------------------------------

    def payload_capacity(self, n_symbols: int) -> int:
        """Largest payload (bytes) that fits in ``n_symbols`` OFDM symbols."""
        rate = self.config.rate
        bits = n_symbols * rate.data_bits_per_symbol - SERVICE_BITS - TAIL_BITS
        if bits < 0:
            raise EncodingError(f"{n_symbols} symbols cannot carry any payload")
        return bits // 8


__all__ = [
    "SERVICE_BITS",
    "TAIL_BITS",
    "WifiRate",
    "RATES",
    "WifiPhyConfig",
    "WifiPhy",
]
