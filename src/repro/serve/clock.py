"""Clock abstraction for the serving layer.

The micro-batching scheduler makes every timing decision — deadlines,
latency measurements, admission — through a clock object, so the same
code runs against the wall clock in production and against a
:class:`VirtualClock` in tests and benchmarks, where time only moves when
the harness says so. That is what makes the batcher deterministic: with a
seeded load generator driving a virtual clock, every flush happens at an
exactly reproducible instant. The asyncio server hands its batcher a
:class:`LoopClock`, so deadlines and latencies share the timeline its
``loop.call_at`` timers run on.
"""

from __future__ import annotations

import asyncio
import time

from repro.errors import ConfigurationError


class MonotonicClock:
    """Wall time via :func:`time.monotonic` (the production clock)."""

    def now(self) -> float:
        return time.monotonic()


class LoopClock:
    """The running event loop's ``loop.time()`` (the asyncio server's clock)."""

    def now(self) -> float:
        return asyncio.get_running_loop().time()


class VirtualClock:
    """A clock that only moves when told to (deterministic tests/benches)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new time."""
        if seconds < 0:
            raise ConfigurationError(
                f"a virtual clock cannot run backwards (advance {seconds})"
            )
        self._now += float(seconds)
        return self._now

    def set(self, instant: float) -> float:
        """Jump to an absolute ``instant`` (must not be in the past)."""
        if instant < self._now:
            raise ConfigurationError(
                f"a virtual clock cannot run backwards "
                f"(set {instant} < now {self._now})"
            )
        self._now = float(instant)
        return self._now


__all__ = ["LoopClock", "MonotonicClock", "VirtualClock"]
