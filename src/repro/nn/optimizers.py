"""Gradient-descent optimizers operating on a network's parameter views."""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError


class Optimizer(abc.ABC):
    """Updates parameters in place from their accumulated gradients."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning rate must be positive, got {learning_rate}"
            )
        self.learning_rate = float(learning_rate)

    @abc.abstractmethod
    def step(
        self, parameters: list[np.ndarray], gradients: list[np.ndarray]
    ) -> None:
        """Apply one update; zeroes the gradients afterwards."""

    @staticmethod
    def _validate(
        parameters: list[np.ndarray], gradients: list[np.ndarray]
    ) -> None:
        if len(parameters) != len(gradients):
            raise ConfigurationError(
                f"{len(parameters)} parameters but {len(gradients)} gradients"
            )
        for p, g in zip(parameters, gradients):
            if p.shape != g.shape:
                raise ConfigurationError(
                    f"parameter shape {p.shape} does not match gradient {g.shape}"
                )

    @staticmethod
    def _zero(gradients: list[np.ndarray]) -> None:
        for g in gradients:
            g[...] = 0.0


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("betas must lie in [0, 1)")
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(
        self, parameters: list[np.ndarray], gradients: list[np.ndarray]
    ) -> None:
        self._validate(parameters, gradients)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in parameters]
            self._v = [np.zeros_like(p) for p in parameters]
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(parameters, gradients, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)
        self._zero(gradients)


__all__ = ["Optimizer", "Adam"]
