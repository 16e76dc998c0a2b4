"""Network layers: forward passes over 2-D batches ``(batch, features)``.

Training runs in :mod:`repro.core.vecenv` on stacked copies of these
parameters, so a layer holds its parameters and computes its forward pass,
nothing more.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


class Layer(abc.ABC):
    """Base class: a function of a batch."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute outputs."""

    @property
    def parameters(self) -> list[np.ndarray]:
        """Parameter arrays (views, rewritten in place by ``set_weights``)."""
        return []


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` with He/Xavier init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        init: str = "he",
        seed: SeedLike = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ConfigurationError("layer dimensions must be positive")
        rng = make_rng(seed)
        if init == "he":
            scale = np.sqrt(2.0 / in_features)
        elif init == "xavier":
            scale = np.sqrt(1.0 / in_features)
        else:
            raise ConfigurationError(f"unknown init {init!r}; use 'he' or 'xavier'")
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        out = x @ self.weight
        out += self.bias
        return out

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Elementwise rectifier, the paper's chosen activation (§III-C).

    ``np.maximum(x, 0.0)`` is the one ReLU rule of the package (the stacked
    chains in :mod:`repro.core.vecenv` use it too). It equals
    ``np.where(x > 0, x, 0.0)`` bit for bit on every non-NaN input, -0.0
    included, but a NaN input propagates to the output instead of being
    zeroed silently.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


__all__ = ["Layer", "Dense", "ReLU"]
