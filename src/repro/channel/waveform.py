"""Waveform-level channel: superpose real baseband signals and decode.

The link-budget models in :mod:`repro.channel.link` are analytic; this
module is their ground truth. It mixes actual complex-baseband waveforms —
a victim's O-QPSK frame, a jammer's burst (EmuBee, ZigBee or Wi-Fi OFDM),
thermal noise — at controlled power ratios on a common 20 Msps clock, runs
the genuine ZigBee receiver, and reports chip/symbol/packet outcomes.
Property tests validate the analytic chip-flip model against these
waveform-level measurements (``tests/oracles/channel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import JammerSignalType
from repro.channel.noise import db_to_linear
from repro.errors import ChannelError
from repro.phy import zigbee
from repro.phy.emulation import emulate_template, frequency_shift
from repro.phy.wifi import WifiPhy
from repro.rng import SeedLike, make_rng


def scale_to_power(waveform: np.ndarray, power_db: float) -> np.ndarray:
    """Scale a waveform so its mean power is ``power_db`` (dB rel. unit)."""
    wf = np.asarray(waveform, dtype=np.complex128).ravel()
    if wf.size == 0:
        raise ChannelError("cannot scale an empty waveform")
    rms = float(np.sqrt(np.mean(np.abs(wf) ** 2)))
    if rms == 0.0:
        raise ChannelError("cannot scale an all-zero waveform")
    return wf * (np.sqrt(db_to_linear(power_db)) / rms)


def awgn(
    n: int, noise_power_db: float, rng: SeedLike = None
) -> np.ndarray:
    """Complex white Gaussian noise of the given mean power (dB rel. unit)."""
    if n < 0:
        raise ChannelError("sample count must be non-negative")
    r = make_rng(rng)
    sigma = np.sqrt(db_to_linear(noise_power_db) / 2.0)
    return sigma * (r.standard_normal(n) + 1j * r.standard_normal(n))


def mix(*waveforms: np.ndarray) -> np.ndarray:
    """Superpose waveforms, zero-padding shorter ones to the longest."""
    if not waveforms:
        raise ChannelError("nothing to mix")
    arrays = [np.asarray(w, dtype=np.complex128).ravel() for w in waveforms]
    n = max(a.size for a in arrays)
    out = np.zeros(n, dtype=np.complex128)
    for a in arrays:
        out[: a.size] += a
    return out


def make_jamming_waveform(
    signal_type: JammerSignalType,
    n_samples: int,
    *,
    rng: SeedLike = None,
    offset_hz: float = 0.0,
) -> np.ndarray:
    """Generate ``n_samples`` of a unit-power jamming waveform at 20 Msps.

    * ``EMUBEE`` — the emulator's forged ZigBee chips (random payload);
    * ``ZIGBEE`` — a genuine O-QPSK chip stream (random payload);
    * ``WIFI``   — an ordinary 802.11 OFDM frame (random payload), i.e.
      wideband noise-like interference at the ZigBee receiver.
    """
    if n_samples < 1:
        raise ChannelError("need at least one sample")
    r = make_rng(rng)
    if signal_type is JammerSignalType.WIFI:
        phy = WifiPhy()
        n_bytes = max(
            phy.payload_capacity(-(-n_samples // 80)), 1
        )
        wf = phy.transmit(bytes(r.integers(0, 256, n_bytes, dtype=np.uint8)))
    else:
        n_bytes = max(n_samples // (2 * zigbee.CHIPS_PER_SYMBOL
                                    * zigbee.DEFAULT_SAMPLES_PER_CHIP) + 1, 2)
        payload = bytes(r.integers(0, 256, n_bytes, dtype=np.uint8))
        if signal_type is JammerSignalType.ZIGBEE:
            wf = zigbee.ZigBeePhy().transmit(payload)
        else:
            # Template cache: each distinct burst payload is emulated once
            # per process (the pipeline is deterministic given the payload).
            wf = emulate_template(payload).emulated
    # Tile/trim to the requested length, then normalise to unit power.
    reps = -(-n_samples // wf.size)
    wf = np.tile(wf, reps)[:n_samples]
    if offset_hz:
        wf = frequency_shift(wf, offset_hz, 20e6)
    return scale_to_power(wf, 0.0)


@dataclass(frozen=True)
class WaveformTrialResult:
    """Outcome of one waveform-level jamming trial."""

    chip_error_rate: float
    symbol_error_rate: float
    packet_delivered: bool
    decoded: bytes


def jam_trial(
    payload: bytes,
    *,
    signal_type: JammerSignalType,
    jam_to_signal_db: float,
    noise_to_signal_db: float = -30.0,
    rng: SeedLike = None,
    offset_hz: float = 0.0,
    bank=None,
) -> WaveformTrialResult:
    """Transmit ``payload`` over ZigBee while a jammer transmits on top.

    The victim waveform is scaled to unit power; the jammer and noise are
    set relative to it. The receiver is the real chip-correlation decoder.

    With ``bank`` set (a :class:`repro.channel.trials.JammerBank`), the
    jammer burst is a random slice of the bank's pre-generated waveform
    instead of a freshly encoded frame — the serial reference for the
    batched :func:`repro.channel.trials.jam_trials` engine, which is
    pinned bit-identical to this path per trial.
    """
    if not payload:
        raise ChannelError("payload must be non-empty")
    r = make_rng(rng)
    phy = zigbee.ZigBeePhy()
    clean = phy.transmit(payload)
    victim = scale_to_power(clean, 0.0)
    if bank is not None:
        unit_jam = bank.waveform(signal_type, victim.size, rng=r, offset_hz=offset_hz)
    else:
        unit_jam = make_jamming_waveform(
            signal_type, victim.size, rng=r, offset_hz=offset_hz
        )
    jammer = unit_jam * np.sqrt(db_to_linear(jam_to_signal_db))
    noise = awgn(victim.size, noise_to_signal_db, r)
    rx = mix(victim, jammer, noise)

    expected_chips = phy.chips_for(payload)
    rx_chips = zigbee.oqpsk_demodulate(rx)
    n = expected_chips.size
    cer = float(np.count_nonzero(rx_chips[:n] != expected_chips)) / n

    symbols, _ = zigbee.despread(rx_chips[:n])
    expected_symbols = zigbee.bytes_to_symbols(payload)
    ser = float(np.mean(symbols != expected_symbols))
    decoded = zigbee.symbols_to_bytes(symbols)
    return WaveformTrialResult(
        chip_error_rate=cer,
        symbol_error_rate=ser,
        packet_delivered=decoded == payload,
        decoded=decoded,
    )


__all__ = [
    "scale_to_power",
    "awgn",
    "mix",
    "make_jamming_waveform",
    "WaveformTrialResult",
    "jam_trial",
]
