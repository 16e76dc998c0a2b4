"""Large-scale propagation: log-distance path loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import PATH_LOSS_EXPONENT, PATH_LOSS_REF_DB
from repro.errors import ChannelError


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance path-loss model.

    ``PL(d) = ref_loss_db + 10 * exponent * log10(d / ref_distance_m)``

    Defaults are calibrated for the paper's indoor lab at 2.4 GHz (~40 dB
    at 1 m, exponent 2.7).
    """

    ref_loss_db: float = PATH_LOSS_REF_DB
    ref_distance_m: float = 1.0
    exponent: float = PATH_LOSS_EXPONENT

    def __post_init__(self) -> None:
        if self.ref_distance_m <= 0:
            raise ChannelError("reference distance must be positive")
        if self.exponent <= 0:
            raise ChannelError("path-loss exponent must be positive")

    def loss_db(self, distance_m: float) -> float:
        """Path loss in dB over ``distance_m``.

        Distances below the reference distance are clamped to it (the model
        is not valid in the near field).
        """
        if distance_m <= 0:
            raise ChannelError(f"distance must be positive, got {distance_m}")
        d = max(distance_m, self.ref_distance_m)
        return self.ref_loss_db + 10.0 * self.exponent * math.log10(
            d / self.ref_distance_m
        )

    def received_power_dbm(self, tx_power_dbm: float, distance_m: float) -> float:
        """Received power for a transmit power and distance."""
        return tx_power_dbm - self.loss_db(distance_m)


__all__ = ["LogDistancePathLoss"]
