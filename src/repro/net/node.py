"""Hub and peripheral node state machines of the star network."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError


@dataclass
class Peripheral:
    """A ZigBee end device that streams data packets to the hub.

    Tracks the (channel, power) the hub last announced. Whether a node is
    off-channel and must be recovered (the slow path of Fig. 9(b)) is drawn
    per poll by :meth:`repro.net.network.StarNetwork.negotiate`.
    """

    node_id: str
    channel: int = 0
    power_index: int = 0

    def apply_announcement(self, channel: int, power_index: int) -> None:
        """Adopt the hub's (channel, power) decision for the coming slot."""
        self.channel = channel
        self.power_index = power_index


@dataclass
class Hub:
    """The network coordinator: runs the policy and polls the peripherals."""

    node_id: str = "hub"
    channel: int = 0
    power_index: int = 0
    peripherals: list[Peripheral] = field(default_factory=list)

    def add_peripheral(self, peripheral: Peripheral) -> None:
        if any(p.node_id == peripheral.node_id for p in self.peripherals):
            raise ProtocolError(f"duplicate node id {peripheral.node_id!r}")
        self.peripherals.append(peripheral)

    def announce(self, channel: int, power_index: int) -> None:
        """Publish the slot's (channel, power) to every reachable node."""
        self.channel = channel
        self.power_index = power_index
        for p in self.peripherals:
            p.apply_announcement(channel, power_index)

    @property
    def network_size(self) -> int:
        return len(self.peripherals)


__all__ = ["Peripheral", "Hub"]
