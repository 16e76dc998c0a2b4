"""ZigBee star-network substrate.

Models the paper's testbed network: one hub and several peripheral nodes in
a time-slotted regime. At each slot boundary the hub runs its anti-jamming
policy, announces (channel, power) to every peripheral by polling, and the
peripherals then stream data packets under Listen-Before-Talk for the rest
of the slot. The timing model is calibrated to the hardware latencies of
paper Fig. 9 (DQN 9 ms, RTT 0.9 ms, processing 0.6 ms, polling 13.1 ms per
node).
"""

from repro.net.energy import EnergyModel, EnergyReport, energy_of_run
from repro.net.goodput import GoodputModel, GoodputReport
from repro.net.network import NegotiationReport, StarNetwork
from repro.net.node import Hub, Peripheral
from repro.net.timing import TimingModel

__all__ = [
    "EnergyModel",
    "EnergyReport",
    "energy_of_run",
    "GoodputModel",
    "GoodputReport",
    "NegotiationReport",
    "StarNetwork",
    "Hub",
    "Peripheral",
    "TimingModel",
]
