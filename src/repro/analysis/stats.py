"""Small statistics helpers for experiment summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class SeriesSummary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(samples) -> SeriesSummary:
    """Summarise a 1-D sample."""
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise SimulationError("cannot summarise an empty sample")
    return SeriesSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


__all__ = [
    "SeriesSummary",
    "summarize",
]
