"""Sequential network container and the paper's MLP factory."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import Dense, Layer, ReLU
from repro.rng import SeedLike, make_rng, spawn


class Network:
    """A sequential stack of layers with predict and weight plumbing.

    ``version`` is a monotonically increasing parameter-mutation counter:
    every library path that rewrites the parameters (``set_weights``,
    ``copy_weights_from``, the serialisation loaders) bumps it, so callers
    holding derived views of the weights — the stacked inference bundles
    of :mod:`repro.core.vecenv` — can detect
    staleness with one integer compare instead of rehashing arrays.
    Code that mutates ``layer.weight``/``layer.bias`` in place directly
    must call :meth:`mark_mutated` itself.
    """

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ConfigurationError("a network needs at least one layer")
        self.layers = list(layers)
        self.version = 0

    def mark_mutated(self) -> None:
        """Record an in-place parameter mutation (invalidates cached stacks)."""
        self.version += 1

    # -- inference ---------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; 1-D inputs yield 1-D outputs."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        out = self.forward(x)
        return out[0] if squeeze else out

    # -- parameters ---------------------------------------------------------------

    @property
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters]

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters))

    def get_weights(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        params = self.parameters
        if len(weights) != len(params):
            raise ConfigurationError(
                f"expected {len(params)} arrays, got {len(weights)}"
            )
        for p, w in zip(params, weights):
            w = np.asarray(w, dtype=np.float64)
            if p.shape != w.shape:
                raise ConfigurationError(
                    f"weight shape {w.shape} does not match parameter {p.shape}"
                )
            p[...] = w
        self.version += 1

    def copy_weights_from(self, other: "Network") -> None:
        """Hard target-network sync."""
        self.set_weights(other.get_weights())

    def clone(self) -> "Network":
        """Structural copy with identical weights (for target networks)."""
        clone = Network(
            [
                Dense(l.in_features, l.out_features) if isinstance(l, Dense) else ReLU()
                for l in self.layers
            ]
        )
        clone.set_weights(self.get_weights())
        return clone


def mlp(
    input_size: int,
    hidden_sizes: tuple[int, ...],
    output_size: int,
    *,
    seed: SeedLike = None,
) -> Network:
    """Build the paper's fully-connected architecture.

    With ``hidden_sizes=(48, 48)`` and the default scenario (I = 5 history
    slots, 16 channels x 10 power levels) this is the 4-layer network of
    Fig. 4: 3·I inputs, two hidden ReLU layers, C·P_L outputs.
    """
    if input_size < 1 or output_size < 1:
        raise ConfigurationError("input and output sizes must be positive")
    if not hidden_sizes:
        raise ConfigurationError("at least one hidden layer is required")
    rng = make_rng(seed)
    seeds = spawn(rng, len(hidden_sizes) + 1)
    layers: list[Layer] = []
    prev = input_size
    for size, layer_seed in zip(hidden_sizes, seeds):
        layers.append(Dense(prev, size, init="he", seed=layer_seed))
        layers.append(ReLU())
        prev = size
    layers.append(Dense(prev, output_size, init="xavier", seed=seeds[-1]))
    return Network(layers)


__all__ = ["Network", "mlp"]
