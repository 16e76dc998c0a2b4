"""Deterministic random-number management.

Every stochastic component in the library takes either a seed or a
:class:`numpy.random.Generator`. This module centralises the coercion logic
and provides independent child streams so that, e.g., the jammer's sweep
order and the victim's exploration noise never share a stream (which would
make results depend on call ordering).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so components can be
    wired to share a stream when a caller explicitly wants that.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Create ``n`` statistically independent child generators of ``rng``."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive(seed: SeedLike, stream: str) -> np.random.Generator:
    """Derive a named, reproducible stream from ``seed``.

    Unlike :func:`spawn`, the result depends only on ``seed`` and ``stream``
    (never on how many other streams were derived first), which keeps
    experiment components reproducible when new components are added.

    The stream is seeded with ``SeedSequence([base, words])``, where
    ``words`` is a ``uint32`` array with one entry per UTF-8 byte of the
    name. NumPy coerces each list entry to 32-bit words (an int by its own
    split, a ``uint32`` array as a copy) and concatenates them, so the pool
    and every draw equal those of ``SeedSequence([base, *bytes])``; the
    array only skips coercing the name byte by byte. The base still goes
    through NumPy's int split, so out-of-range bases keep its errors.
    """
    if isinstance(seed, np.random.Generator):
        # Generators carry no recoverable seed; fall back to drawing one.
        base = int(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        base = int(seed.generate_state(1)[0])
    elif seed is None:
        base = 0
    else:
        base = int(seed)
    words = np.frombuffer(stream.encode("utf-8"), dtype=np.uint8).astype(np.uint32)
    return np.random.default_rng(np.random.SeedSequence([base, words]))


def stable_hash(*parts: object) -> str:
    """Deterministic short digest of the ``repr`` of ``parts``.

    Unlike builtin :func:`hash`, the result does not depend on
    ``PYTHONHASHSEED`` or the process, so stream tags built from it are
    reproducible across runs and across pool workers. Only use with
    objects whose ``repr`` is deterministic (numbers, strings, tuples,
    dataclasses of those).
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


_LOW32 = np.uint64(0xFFFFFFFF)


class BoundedDraws:
    """``Generator.integers(k)`` on many PCG64 streams at once, bit for bit.

    NumPy draws a bound ``1 < k < 2**32`` with Lemire's method over the
    stream's 32-bit halves: the low half of a ``random_raw`` word first,
    its high half cached for the next draw. A half ``h`` is rejected
    while the low word of ``h * k`` is below ``(2**32 - k) % k``;
    otherwise the draw is the high word. ``k == 1`` consumes nothing.

    Each row pre-draws a block of raw words from its generator, so from
    construction on the generators belong to this object: a direct draw
    would skip the words it holds. A half an earlier draw left cached
    (``bit_generator.state["has_uint32"]``) is consumed first.
    :func:`bounded_draws_exact` checks the emulation once per process.
    """

    def __init__(self, generators: list[np.random.Generator], *, block: int = 64):
        n = len(generators)
        self._bitgens = [g.bit_generator for g in generators]
        self._block = int(block)
        self._halves = np.zeros((n, 2 * self._block), dtype=np.uint64)
        self._cursor = np.zeros(n, dtype=np.intp)
        self._end = np.zeros(n, dtype=np.intp)
        for i, bitgen in enumerate(self._bitgens):
            state = bitgen.state
            if state["has_uint32"]:
                self._halves[i, 0] = state["uinteger"]
                self._end[i] = 1
                bitgen.state = {**state, "has_uint32": 0, "uinteger": 0}

    @staticmethod
    def supports(generators: list[np.random.Generator]) -> bool:
        """Whether these generators can be drawn through this class exactly.

        They must be distinct PCG64 streams, and the emulation must have
        passed its self-check in this process.
        """
        return (
            len({id(g) for g in generators}) == len(generators)
            and all(type(g.bit_generator) is np.random.PCG64 for g in generators)
            and bounded_draws_exact()
        )

    def _next(self, rows: np.ndarray) -> np.ndarray:
        """The next 32-bit half of each (distinct) row's stream."""
        empty = rows[self._cursor[rows] >= self._end[rows]]
        if len(empty):
            words = np.array([self._bitgens[i].random_raw(self._block) for i in empty])
            self._halves[empty, 0::2] = words & _LOW32
            self._halves[empty, 1::2] = words >> np.uint64(32)
            self._cursor[empty] = 0
            self._end[empty] = 2 * self._block
        halves = self._halves[rows, self._cursor[rows]]
        self._cursor[rows] += 1
        return halves

    def integers(self, rows, bounds) -> np.ndarray:
        """One ``integers(bound)`` draw from each listed row's stream.

        ``rows`` must be distinct; ``bounds`` (one per row, or one for
        all) must lie in ``[1, 2**32)``. Returns int64 draws.
        """
        rows = np.asarray(rows, dtype=np.intp)
        bounds = np.broadcast_to(np.asarray(bounds, dtype=np.uint64), rows.shape)
        out = np.zeros(len(rows), dtype=np.int64)
        draw = bounds > 1
        if not draw.any():
            return out
        rows, k = rows[draw], bounds[draw]
        product = self._next(rows) * k
        threshold = (np.uint64(1 << 32) - k) % k
        for j in np.flatnonzero((product & _LOW32) < threshold):
            # Rejection is rare (p < k / 2**32): retry that row alone.
            while (product[j] & _LOW32) < threshold[j]:
                product[j] = self._next(rows[j : j + 1])[0] * k[j]
        out[draw] = product >> np.uint64(32)
        return out


@functools.cache
def bounded_draws_exact() -> bool:
    """Whether :class:`BoundedDraws` reproduces ``Generator.integers`` here.

    The emulation leans on how NumPy's PCG64 consumes its stream, which
    NumPy does not promise. Checked once per process, from fresh and
    half-cached states, with a bound that forces rejections; callers
    fall back to per-generator draws when it fails.
    """
    bounds = (1, 2, 3, 5, 16, 7, 3 << 30, 15, 3 << 30, 4)
    try:
        for cached in (False, True):
            mine = [np.random.default_rng(seed) for seed in range(4)]
            reference = [np.random.default_rng(seed) for seed in range(4)]
            if cached:
                for g in (*mine, *reference):
                    g.integers(16)
            draws = BoundedDraws(mine, block=2)
            rows = np.arange(4)
            for _ in range(4):
                for k in bounds:
                    want = [int(g.integers(k)) for g in reference]
                    if draws.integers(rows, k).tolist() != want:
                        return False
    except (KeyError, TypeError, ValueError):
        # The bit generator's state layout changed under us.
        return False
    return True


__all__ = [
    "SeedLike",
    "make_rng",
    "spawn",
    "derive",
    "stable_hash",
    "BoundedDraws",
    "bounded_draws_exact",
]
