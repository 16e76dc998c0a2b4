"""Physical-layer substrate.

Implements, from scratch, the two radio PHYs the paper's attack bridges:

* an IEEE 802.11a/g-style OFDM transmit chain (:mod:`repro.phy.wifi`)
  built from the scrambler, convolutional code, interleaver, QAM mapper and
  OFDM modem in the sibling modules; and
* an IEEE 802.15.4 O-QPSK/DSSS chain (:mod:`repro.phy.zigbee`) with the
  ZigBee frame format (:mod:`repro.phy.packet`).

On top of both sits :mod:`repro.phy.emulation`, the cross-technology signal
emulator of paper §II-A: it inverts the Wi-Fi PHY to find the payload whose
transmission emulates a designed ZigBee waveform, including the α-scaled
64-QAM quantization optimisation of Eqs. (1)–(2).
"""

from repro.phy.bits import bits_to_bytes, bytes_to_bits, crc16_itut
from repro.phy.emulation import EmulationResult, WaveformEmulator, optimize_alpha
from repro.phy.packet import ZigBeeFrame, decode_frame
from repro.phy.wifi import WifiPhy, WifiPhyConfig
from repro.phy.zigbee import ZigBeePhy, ZigBeePhyConfig

__all__ = [
    "bits_to_bytes",
    "bytes_to_bits",
    "crc16_itut",
    "EmulationResult",
    "WaveformEmulator",
    "optimize_alpha",
    "ZigBeeFrame",
    "decode_frame",
    "WifiPhy",
    "WifiPhyConfig",
    "ZigBeePhy",
    "ZigBeePhyConfig",
]
