"""2.4 GHz ISM band geometry: the spectral overlap of Wi-Fi and ZigBee.

The cross-technology jammer's reach comes from this geometry: one 20 MHz
Wi-Fi channel blankets four 2 MHz ZigBee channels (paper §II-B), so a
sweeping Wi-Fi jammer covers all 16 ZigBee channels in ⌈16/4⌉ = 4 slots.
"""

from __future__ import annotations

from repro.constants import ZIGBEE_BANDWIDTH_MHZ
from repro.errors import ChannelError


def overlap_fraction_mhz(
    center_a_mhz: float, bw_a_mhz: float, center_b_mhz: float, bw_b_mhz: float
) -> float:
    """Bandwidth (MHz) shared by two rectangular spectral masks."""
    if bw_a_mhz <= 0 or bw_b_mhz <= 0:
        raise ChannelError("bandwidths must be positive")
    lo = max(center_a_mhz - bw_a_mhz / 2, center_b_mhz - bw_b_mhz / 2)
    hi = min(center_a_mhz + bw_a_mhz / 2, center_b_mhz + bw_b_mhz / 2)
    return max(0.0, hi - lo)


def inband_power_fraction(
    interferer_center_mhz: float,
    interferer_bw_mhz: float,
    victim_center_mhz: float,
    victim_bw_mhz: float = ZIGBEE_BANDWIDTH_MHZ,
) -> float:
    """Fraction of an interferer's power landing in the victim's band.

    Assumes a flat spectral mask — adequate for OFDM (near-flat) and
    conservative for O-QPSK. This is why raw Wi-Fi is a weak jammer: only
    2/20 of its power lands inside a 2 MHz ZigBee channel.
    """
    shared = overlap_fraction_mhz(
        interferer_center_mhz, interferer_bw_mhz, victim_center_mhz, victim_bw_mhz
    )
    return shared / interferer_bw_mhz


__all__ = [
    "overlap_fraction_mhz",
    "inband_power_fraction",
]
