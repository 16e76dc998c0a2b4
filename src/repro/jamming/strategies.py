"""Jammer sweep strategies — how the attacker orders its search.

The paper's jammer sweeps blocks uniformly at random without replacement
(that is what induces the 1/(S-n) hazard of Eqs. 6-8). This module makes
the sweep order a pluggable strategy and adds two stronger attackers that
probe the defence beyond the paper's model:

* :class:`SequentialSweep` — a naive fixed rotation (the paper notes a
  2-slot cycle "is degraded into an alternate sweep, which is easier to
  be predicted"; this generalises that observation);
* :class:`AdaptiveSweep` — a memory-guided attacker that revisits blocks
  where it found the victim before. Victims that favour channels (as a
  lightly-trained DQN does) are punished; the uniform-hopping optimum is
  not — a counter-adaptation study the paper leaves open.
"""

from __future__ import annotations

import abc
import functools
import inspect

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


class SweepStrategy(abc.ABC):
    """Chooses which block to sweep next."""

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 1:
            raise ConfigurationError("need at least one block")
        self.num_blocks = num_blocks

    @abc.abstractmethod
    def next_block(self) -> int:
        """Block to sweep this slot."""

    def notify_found(self, block: int) -> None:
        """The victim was found in ``block`` (camping starts)."""

    def notify_lost(self, block: int) -> None:
        """The victim left ``block`` (camping ends)."""

    def reset(self) -> None:
        """Restart the search from scratch."""


class RandomSweep(SweepStrategy):
    """The paper's jammer: uniform order without replacement per cycle."""

    def __init__(self, num_blocks: int, *, seed: SeedLike = None) -> None:
        super().__init__(num_blocks)
        self._rng = make_rng(seed)
        self._unvisited: list[int] = []

    def next_block(self) -> int:
        if not self._unvisited:
            self._unvisited = list(range(self.num_blocks))
        pick = int(self._unvisited.pop(int(self._rng.integers(len(self._unvisited)))))
        return pick

    def notify_lost(self, block: int) -> None:
        # Fresh cycle excluding the block the victim just left.
        self._unvisited = [b for b in range(self.num_blocks) if b != block]

    def reset(self) -> None:
        self._unvisited = []


class SequentialSweep(SweepStrategy):
    """Deterministic rotation 0, 1, 2, ... — trivially predictable."""

    def __init__(self, num_blocks: int, *, start: int = 0) -> None:
        super().__init__(num_blocks)
        if not 0 <= start < num_blocks:
            raise ConfigurationError("start block out of range")
        self._start = start
        self._next = start

    def next_block(self) -> int:
        pick = self._next
        self._next = (self._next + 1) % self.num_blocks
        return pick

    def notify_lost(self, block: int) -> None:
        self._next = (block + 1) % self.num_blocks

    def reset(self) -> None:
        self._next = self._start


class AdaptiveSweep(SweepStrategy):
    """Memory-guided search: prefer blocks that hosted the victim before.

    Keeps an exponentially-discounted count of past sightings per block
    and, with probability ``exploit_probability``, sweeps the
    highest-scoring not-yet-visited block of the current cycle; otherwise
    it explores uniformly. Against a victim with channel preferences this
    finds the target much faster than 1/(S-n).
    """

    def __init__(
        self,
        num_blocks: int,
        *,
        exploit_probability: float = 0.7,
        memory_decay: float = 0.9,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(num_blocks)
        if not 0.0 <= exploit_probability <= 1.0:
            raise ConfigurationError("exploit probability must be in [0, 1]")
        if not 0.0 < memory_decay <= 1.0:
            raise ConfigurationError("memory decay must lie in (0, 1]")
        self.exploit_probability = exploit_probability
        self.memory_decay = memory_decay
        self._rng = make_rng(seed)
        self._scores = np.zeros(num_blocks)
        self._unvisited: list[int] = []

    def next_block(self) -> int:
        if not self._unvisited:
            self._unvisited = list(range(self.num_blocks))
        if self._rng.random() < self.exploit_probability:
            best = max(self._unvisited, key=lambda b: (self._scores[b], -b))
            self._unvisited.remove(best)
            return int(best)
        pick = int(self._unvisited.pop(int(self._rng.integers(len(self._unvisited)))))
        return pick

    def notify_found(self, block: int) -> None:
        self._scores *= self.memory_decay
        self._scores[block] += 1.0

    def notify_lost(self, block: int) -> None:
        self._unvisited = [b for b in range(self.num_blocks) if b != block]

    def reset(self) -> None:
        self._scores[...] = 0.0
        self._unvisited = []


_STRATEGY_CLASSES: dict[str, type[SweepStrategy]] = {
    "random": RandomSweep,
    "sequential": SequentialSweep,
    "adaptive": AdaptiveSweep,
}

#: Names :func:`make_strategy` understands, in stable order.
STRATEGY_NAMES = tuple(_STRATEGY_CLASSES)


def _lookup(name: str) -> type[SweepStrategy]:
    try:
        return _STRATEGY_CLASSES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep strategy {name!r}; expected one of "
            f"{'/'.join(STRATEGY_NAMES)}"
        ) from None


@functools.cache
def strategy_options(name: str) -> tuple[str, ...]:
    """Keyword options the named strategy accepts (besides ``num_blocks``).

    ``"seed" in strategy_options(name)`` tells a caller whether the
    strategy is randomised at all — :class:`SequentialSweep` is not.
    Memoised: every jammer of a grid asks twice while it is built.
    """
    params = inspect.signature(_lookup(name).__init__).parameters
    return tuple(p for p in params if p not in ("self", "num_blocks"))


def make_strategy(
    name: str, num_blocks: int, *, seed: SeedLike = None, **options
) -> SweepStrategy:
    """Factory: ``random`` (paper), ``sequential``, or ``adaptive``.

    Extra keyword ``options`` are forwarded to the strategy constructor
    (e.g. ``exploit_probability``/``memory_decay`` for ``adaptive``,
    ``start`` for ``sequential``). ``seed`` is validated like any other
    option: passing one to a strategy that cannot use it (``sequential``)
    raises :class:`~repro.errors.ConfigurationError` instead of silently
    discarding it.
    """
    cls = _lookup(name)
    accepted = strategy_options(name)
    if seed is not None:
        options = {**options, "seed": seed}
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"sweep strategy {name!r} does not accept option(s) "
            f"{', '.join(unknown)}; it takes {', '.join(accepted) or 'none'}"
        )
    return cls(num_blocks, **options)


__all__ = [
    "SweepStrategy",
    "RandomSweep",
    "SequentialSweep",
    "AdaptiveSweep",
    "STRATEGY_NAMES",
    "strategy_options",
    "make_strategy",
]
