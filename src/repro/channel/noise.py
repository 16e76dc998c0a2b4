"""Noise floor and dB/linear conversion helpers."""

from __future__ import annotations

import math

from repro.constants import NOISE_FIGURE_DB
from repro.errors import ChannelError

#: Thermal noise power spectral density at 290 K, dBm/Hz.
THERMAL_NOISE_DBM_PER_HZ = -174.0


def db_to_linear(db: float) -> float:
    """Convert a dB ratio to a linear ratio."""
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    """Convert dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    """Convert watts to dBm."""
    if watts <= 0:
        raise ChannelError(f"cannot express non-positive power {watts} W in dBm")
    return 10.0 * math.log10(watts) + 30.0


def thermal_noise_dbm(
    bandwidth_hz: float, noise_figure_db: float = NOISE_FIGURE_DB
) -> float:
    """Receiver noise floor over ``bandwidth_hz`` including the noise figure.

    For a 2 MHz ZigBee channel with a 10 dB noise figure this is about
    -101 dBm, matching CC26x2-class radios.
    """
    if bandwidth_hz <= 0:
        raise ChannelError(f"bandwidth must be positive, got {bandwidth_hz}")
    return (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(bandwidth_hz)
        + noise_figure_db
    )


def combine_powers_dbm(powers_dbm: list[float]) -> float:
    """Sum incoherent powers expressed in dBm; empty input is -inf dBm."""
    if not powers_dbm:
        return float("-inf")
    total = sum(dbm_to_watts(p) for p in powers_dbm)
    return watts_to_dbm(total)


__all__ = [
    "THERMAL_NOISE_DBM_PER_HZ",
    "db_to_linear",
    "dbm_to_watts",
    "watts_to_dbm",
    "thermal_noise_dbm",
    "combine_powers_dbm",
]
