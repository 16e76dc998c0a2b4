"""Hardware timing model — paper §IV-D-1, Fig. 9.

The paper measures four latencies on the CC26X2R1/USRP testbed (100 trials
each): running the DQN (~9 ms), the data/ACK round trip (~0.9 ms), hub-side
data processing (~0.6 ms), and the per-node polling announcement
(~13.1 ms). We model each as a gamma-distributed positive random variable
with the measured mean and a realistic coefficient of variation, plus the
off-channel recovery behaviour that makes FH negotiation occasionally take
seconds (Fig. 9(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaincinv, ndtri

from repro.constants import (
    TIME_DATA_PROCESSING_S,
    TIME_DQN_INFERENCE_S,
    TIME_POLLING_PER_NODE_S,
    TIME_ROUND_TRIP_S,
)
from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng

#: CSMA turnaround mean folded into the per-packet service time; calibrated
#: so the no-jamming goodput of Fig. 10(a) lands near the paper's curve.
TURNAROUND_MEAN_S = 4.6e-3

#: Coefficient of variation of the off-channel recovery wait (Fig. 9(b) tail).
OFF_CHANNEL_RECOVERY_CV = 0.6

#: Uniforms are clipped into this open interval before quantile inversion.
_QUANTILE_EPS = 1e-9


def _gamma_sample(
    rng: np.random.Generator, mean: float, cv: float, size: int | None = None
):
    """Gamma samples with the given mean and coefficient of variation."""
    shape = 1.0 / (cv * cv)
    scale = mean / shape
    return rng.gamma(shape, scale, size=size)


#: Intervals of the quantile table: its grid points are exactly ``j / 4096``.
_QUANTILE_STEPS = 4096


@lru_cache(maxsize=32)
def _gamma_quantile_table(shape: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense quantile grid of the unit-scale gamma with the given shape.

    Returns the grid, the quantiles on it and the slope of each interval,
    computed as :func:`numpy.interp` computes them.
    """
    grid = np.linspace(0.0, 1.0, _QUANTILE_STEPS + 1)
    table = gammaincinv(shape, np.clip(grid, _QUANTILE_EPS, 1.0 - _QUANTILE_EPS))
    return grid, table, np.diff(table) / np.diff(grid)


def gamma_from_uniform(u, mean: float, cv: float):
    """Map uniforms in [0, 1) through the gamma(mean, cv) quantile function.

    Interpolated from a cached 4097-point table — the aggregate sampling
    path trades exact inverse-CDF evaluation for speed. Elementwise, so a
    row of a batched input maps exactly as the same row alone would.

    The table's grid points are ``j / 4096`` exactly, so a ``u`` in
    [0, 1) lies in interval ``floor(u * 4096)``: it is indexed directly,
    with the arithmetic of :func:`numpy.interp`, instead of searched for.
    Any other input (1.0, out of range, NaN, empty) goes through
    :func:`numpy.interp` itself, so every input maps bit for bit as
    ``np.interp(u, grid, table)`` would.
    """
    shape = 1.0 / (cv * cv)
    grid, table, slopes = _gamma_quantile_table(shape)
    u = np.asarray(u, dtype=np.float64)
    if u.size and u.min() >= 0.0 and u.max() < 1.0:
        j = (u * _QUANTILE_STEPS).astype(np.intp)
        quantile = slopes[j] * (u - grid[j]) + table[j]
    else:
        quantile = np.interp(u, grid, table)
    return quantile * (mean / shape)


def normal_from_uniform(u):
    """Standard-normal quantile of uniforms in [0, 1) (elementwise)."""
    return ndtri(np.clip(u, _QUANTILE_EPS, 1.0 - _QUANTILE_EPS))


@dataclass(frozen=True)
class TimingModel:
    """Stochastic latencies of the hub/peripheral hardware."""

    dqn_inference_mean_s: float = TIME_DQN_INFERENCE_S
    round_trip_mean_s: float = TIME_ROUND_TRIP_S
    processing_mean_s: float = TIME_DATA_PROCESSING_S
    polling_per_node_mean_s: float = TIME_POLLING_PER_NODE_S
    #: Relative jitter of each latency.
    jitter_cv: float = 0.12
    #: Probability a peripheral is off-channel when polled and must be
    #: awaited on the control channel (the seconds-long tail of Fig. 9(b)).
    off_channel_probability: float = 0.12
    #: Mean wait for an off-channel node to return to the control channel.
    off_channel_recovery_mean_s: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "dqn_inference_mean_s",
            "round_trip_mean_s",
            "processing_mean_s",
            "polling_per_node_mean_s",
            "off_channel_recovery_mean_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if not 0 < self.jitter_cv < 1:
            raise ConfigurationError("jitter_cv must lie in (0, 1)")
        if not 0.0 <= self.off_channel_probability <= 1.0:
            raise ConfigurationError("off_channel_probability must be in [0, 1]")

    # -- individual latencies (Fig. 9(a)) ------------------------------------

    def dqn_inference(self, rng: SeedLike = None, size: int | None = None):
        """Time for the hub to run the DQN forward pass."""
        return _gamma_sample(make_rng(rng), self.dqn_inference_mean_s, self.jitter_cv, size)

    def round_trip(self, rng: SeedLike = None, size: int | None = None):
        """Data + ACK round-trip time of one packet."""
        return _gamma_sample(make_rng(rng), self.round_trip_mean_s, self.jitter_cv, size)

    def processing(self, rng: SeedLike = None, size: int | None = None):
        """Hub-side processing time after receiving one packet."""
        return _gamma_sample(make_rng(rng), self.processing_mean_s, self.jitter_cv, size)

    def polling(self, rng: SeedLike = None, size: int | None = None):
        """Per-node polling announcement time."""
        return _gamma_sample(
            make_rng(rng), self.polling_per_node_mean_s, self.jitter_cv, size
        )

    # -- composite costs ---------------------------------------------------------

    def packet_service_time(self, rng: SeedLike = None) -> float:
        """Air + processing time consumed by one delivered data packet.

        RTT + hub processing + a CSMA turnaround of the same order as the
        RTT; calibrated so the no-jamming goodput of Fig. 10(a) lands near
        the paper's 148..806 packets/slot over 1..5 s slots.
        """
        r = make_rng(rng)
        turnaround = _gamma_sample(r, TURNAROUND_MEAN_S, self.jitter_cv)
        return float(
            self.round_trip(r) + self.processing(r) + turnaround
        )

    @property
    def packet_service_mean_s(self) -> float:
        """Mean of :meth:`packet_service_time`."""
        return (
            TURNAROUND_MEAN_S + self.round_trip_mean_s + self.processing_mean_s
        )

    @property
    def packet_service_std_s(self) -> float:
        """Standard deviation of :meth:`packet_service_time`.

        The three gamma components are independent with relative jitter
        ``jitter_cv``, so variances add.
        """
        return self.jitter_cv * float(
            np.sqrt(
                TURNAROUND_MEAN_S**2
                + self.round_trip_mean_s**2
                + self.processing_mean_s**2
            )
        )

    def negotiation_time(
        self,
        num_nodes: int,
        rng: SeedLike = None,
        *,
        include_recovery: bool = True,
    ) -> float:
        """FH negotiation time for a network of ``num_nodes`` peripherals.

        The hub polls every node (13.1 ms each) and, when a node is not on
        the expected channel, waits for it to reappear on the control
        channel — this is what stretches negotiation to seconds for larger
        networks (Fig. 9(b)). ``include_recovery=False`` gives the typical
        per-slot announcement cost (all nodes already synchronised), the
        ~0.07 s overhead of Fig. 10(b).
        """
        if num_nodes < 1:
            raise ConfigurationError(f"need at least one node, got {num_nodes}")
        r = make_rng(rng)
        total = float(self.dqn_inference(r))
        for _ in range(num_nodes):
            total += float(self.polling(r))
            if include_recovery and r.random() < self.off_channel_probability:
                total += float(
                    _gamma_sample(
                        r,
                        self.off_channel_recovery_mean_s,
                        OFF_CHANNEL_RECOVERY_CV,
                    )
                )
        return total

    # -- fixed-draw (aggregate) sampling ------------------------------------

    def negotiation_uniform_count(self, num_nodes: int) -> int:
        """Uniforms :meth:`negotiation_time_from_uniforms` consumes per slot.

        One DQN-inference draw plus, per node: polling, an off-channel
        indicator, and a recovery draw. The recovery draw is *always*
        consumed (and conditionally applied), which is what keeps the
        per-slot draw budget fixed.
        """
        if num_nodes < 1:
            raise ConfigurationError(f"need at least one node, got {num_nodes}")
        return 3 * num_nodes + 1

    def negotiation_time_from_uniforms(
        self,
        num_nodes: int,
        uniforms,
        *,
        include_recovery=True,
    ):
        """Negotiation time computed from pre-drawn uniforms (vectorisable).

        ``uniforms`` has ``negotiation_uniform_count(num_nodes)`` entries
        along its last axis — layout: ``[dqn, polling x n, off-channel
        indicator x n, recovery x n]``. ``include_recovery`` may be a bool
        array broadcast against the leading axes. Elementwise in the
        uniforms, so each batch row matches the same row computed solo.
        The recovery quantile is evaluated only for off-channel nodes of
        rows that include recovery; every other entry adds an exact 0.0.
        """
        n = int(num_nodes)
        count = self.negotiation_uniform_count(n)
        u = np.asarray(uniforms, dtype=np.float64)
        if u.shape[-1] != count:
            raise ConfigurationError(
                f"expected {count} uniforms along the last axis, got {u.shape[-1]}"
            )
        dqn = gamma_from_uniform(
            u[..., 0], self.dqn_inference_mean_s, self.jitter_cv
        )
        polling = gamma_from_uniform(
            u[..., 1 : 1 + n], self.polling_per_node_mean_s, self.jitter_cv
        ).sum(axis=-1)
        off = u[..., 1 + n : 1 + 2 * n] < self.off_channel_probability
        used = off & np.asarray(include_recovery, dtype=bool)[..., None]
        recovery = np.zeros(used.shape)
        recovery[used] = gamma_from_uniform(
            np.broadcast_to(u[..., 1 + 2 * n :], used.shape)[used],
            self.off_channel_recovery_mean_s,
            OFF_CHANNEL_RECOVERY_CV,
        )
        return dqn + polling + recovery.sum(axis=-1)


__all__ = [
    "TimingModel",
    "TURNAROUND_MEAN_S",
    "OFF_CHANNEL_RECOVERY_CV",
    "gamma_from_uniform",
    "normal_from_uniform",
]
