"""Minimal neural-network substrate for the DQN (no ML frameworks).

Implements exactly what the paper's 4-layer fully-connected DQN needs:
dense layers with ReLU, the Huber loss, Adam, deterministic
initialisation, and flat-parameter (de)serialisation — the "series of
matrices, 10664 float numbers with 42.7KB memory" artifact the paper loads
onto the IoT hub.
"""

from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.losses import HuberLoss, Loss
from repro.nn.network import Network, mlp
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.serialize import parameter_count, save_parameters

__all__ = [
    "Dense",
    "Layer",
    "ReLU",
    "HuberLoss",
    "Loss",
    "Network",
    "mlp",
    "Adam",
    "Optimizer",
    "save_parameters",
    "parameter_count",
]
