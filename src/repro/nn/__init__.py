"""Minimal neural-network substrate for the DQN (no ML frameworks).

Implements exactly what the paper's 4-layer fully-connected DQN needs at
inference: dense layers with ReLU, deterministic initialisation, and
flat-parameter (de)serialisation — the "series of matrices, 10664 float
numbers with 42.7KB memory" artifact the paper loads onto the IoT hub.
Training (the Huber loss and Adam) runs on stacked copies of these
parameters in :mod:`repro.core.vecenv`.
"""

from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.network import Network, mlp
from repro.nn.serialize import parameter_count, save_parameters

__all__ = [
    "Dense",
    "Layer",
    "ReLU",
    "Network",
    "mlp",
    "save_parameters",
    "parameter_count",
]
