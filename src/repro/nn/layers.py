"""Network layers with explicit forward/backward passes.

Every layer consumes and produces 2-D batches ``(batch, features)``. The
backward pass takes the gradient of the loss w.r.t. the layer's output and
returns the gradient w.r.t. its input, accumulating parameter gradients
internally (cleared by the optimizer after each step).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


class Layer(abc.ABC):
    """Base class: a differentiable function of a batch."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute outputs and cache whatever backward needs."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate gradients; returns dL/d(input)."""

    @property
    def parameters(self) -> list[np.ndarray]:
        """Trainable arrays (views, mutated in place by optimizers)."""
        return []

    @property
    def gradients(self) -> list[np.ndarray]:
        """Accumulated gradients aligned with :attr:`parameters`."""
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
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

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
        self._input = x
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ConfigurationError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.grad_weight += self._input.T @ grad_output
        self.grad_bias += grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Layer):
    """Elementwise rectifier, the paper's chosen activation (§III-C).

    ``np.maximum(x, 0.0)`` is the one ReLU rule of the package (the stacked
    chains in :mod:`repro.core.vecenv` use it too). It equals
    ``np.where(x > 0, x, 0.0)`` bit for bit on every non-NaN input, -0.0
    included, but a NaN input now propagates to the output instead of being
    zeroed silently; its gradient is still masked to zero.
    """

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ConfigurationError("backward called before forward")
        return np.asarray(grad_output) * self._mask


__all__ = ["Layer", "Dense", "ReLU"]
