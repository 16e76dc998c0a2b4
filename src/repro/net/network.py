"""Star-network orchestration: polling announcements and FH negotiation.

Implements the coordination protocol of paper §IV-D-1: at the start of a
slot the hub decides (channel, power), then polls every peripheral in turn
("polling mode") to deliver the decision; once all nodes have confirmed it
triggers the simultaneous frequency change. Nodes that were off-channel
(e.g. the previous channel was jammed mid-slot) are recovered through the
dedicated control channel, which can stretch negotiation to seconds
(Fig. 9(b)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.node import Hub, Peripheral
from repro.net.timing import TimingModel, _gamma_sample
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class NegotiationReport:
    """Cost breakdown of one announcement round."""

    duration_s: float
    polled_nodes: int
    recovered_nodes: int


class StarNetwork:
    """One hub plus ``num_peripherals`` end devices."""

    def __init__(
        self,
        num_peripherals: int,
        *,
        timing: TimingModel | None = None,
        seed: SeedLike = None,
    ) -> None:
        if num_peripherals < 1:
            raise ConfigurationError("a star network needs at least one peripheral")
        self.timing = timing or TimingModel()
        self._rng = make_rng(seed)
        self.hub = Hub()
        for i in range(num_peripherals):
            self.hub.add_peripheral(Peripheral(node_id=f"node{i + 1}"))

    @property
    def peripherals(self) -> list[Peripheral]:
        return self.hub.peripherals

    @property
    def size(self) -> int:
        return self.hub.network_size

    def negotiate(self, channel: int, power_index: int) -> NegotiationReport:
        """Run one polling round announcing (channel, power) to every node.

        Each polled node is off-channel with probability
        ``timing.off_channel_probability`` and must be recovered through the
        control channel; every recovery adds its wait to the negotiation
        time.
        """
        t = self.timing
        duration = float(t.dqn_inference(self._rng))
        recovered = 0
        for node in self.peripherals:
            duration += float(t.polling(self._rng))
            if self._rng.random() < t.off_channel_probability:
                recovered += 1
                duration += float(
                    _gamma_sample(self._rng, t.off_channel_recovery_mean_s, 0.6)
                )
            node.apply_announcement(channel, power_index)
        self.hub.announce(channel, power_index)
        return NegotiationReport(
            duration_s=duration,
            polled_nodes=self.size,
            recovered_nodes=recovered,
        )


__all__ = ["NegotiationReport", "StarNetwork"]
