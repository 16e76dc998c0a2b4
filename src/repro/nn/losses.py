"""Training losses with analytic gradients."""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError


def _check_shapes(prediction: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(prediction, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ConfigurationError(
            f"prediction shape {p.shape} does not match target shape {t.shape}"
        )
    if p.size == 0:
        raise ConfigurationError("cannot compute a loss over zero elements")
    return p, t


class Loss(abc.ABC):
    """A scalar loss with its gradient w.r.t. the prediction."""

    @abc.abstractmethod
    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        ...

    @abc.abstractmethod
    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        ...


class HuberLoss(Loss):
    """Huber (smooth-L1) loss — the standard DQN choice.

    Quadratic within ``delta`` of the target, linear outside, keeping
    bootstrapped TD errors from exploding gradients.
    """

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.delta = float(delta)

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        p, t = _check_shapes(prediction, target)
        err = p - t
        abs_err = np.abs(err)
        quad = np.minimum(abs_err, self.delta)
        return float(np.mean(0.5 * quad**2 + self.delta * (abs_err - quad)))

    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        p, t = _check_shapes(prediction, target)
        err = p - t
        return np.clip(err, -self.delta, self.delta) / p.size


__all__ = ["Loss", "HuberLoss"]
