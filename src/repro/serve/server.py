"""Asyncio front-end for the decision service.

:class:`DecisionServer` exposes one coroutine — :meth:`DecisionServer.decide`
— to any number of concurrent client tasks. It is a thin driver over one
:class:`~repro.serve.batcher.MicroBatcher`, which owns every serving rule:
the ``REPRO_SERVE_*`` knobs, the bounded pending queue, the shed/degrade
refusal, and the flush (one stacked forward through the
:class:`~repro.serve.store.PolicyStore`, the ``serve.*`` metrics, one
:class:`~repro.serve.batcher.Decision` per request). The batcher reads the
running loop's clock, so a decision's ``latency_s`` is flush time minus
submit time on ``loop.time()``.

The server adds only what asyncio adds: a deque of futures, one per
request in the batcher's queue (the queue itself holds plain tuples),
resolved in its FIFO order; a ``loop.call_at`` timer that flushes when
the oldest request reaches its deadline; and, in ``queue`` admission
mode, suspending the caller on an event until a flush frees capacity
(where the synchronous batcher flushes to make room instead).

Every step that answers, fails or must arm the timer runs through
``_run``. An enqueue that can do none of these (the timer is armed and
the request cannot fill a batch) is made inline; if it raises, only its
own caller, the newest, gets the error.

``stop()`` drains gracefully: new submissions are refused, everything
already queued is flushed and answered, then queued waiters are released.
"""

from __future__ import annotations

import asyncio
from collections import deque

import numpy as np

from repro.errors import ExecutionError
from repro.serve.batcher import Decision, MicroBatcher, ShedDecision
from repro.serve.clock import LoopClock
from repro.serve.store import PolicyStore


class DecisionServer:
    """Bounded-queue asyncio decision service over a policy store."""

    def __init__(
        self,
        store: PolicyStore,
        *,
        max_batch: int | str | None = None,
        deadline_ms: float | str | None = None,
        queue_limit: int | str | None = None,
        admission: str | None = None,
    ) -> None:
        self.store = store
        self.batcher = MicroBatcher(
            store,
            max_batch=max_batch,
            deadline_ms=deadline_ms,
            queue_limit=queue_limit,
            admission=admission,
            clock=LoopClock(),
        )
        # One future per queued request, in the batcher's FIFO order.
        self._futures: deque[asyncio.Future] = deque()
        self._timer: asyncio.TimerHandle | None = None
        self._space = asyncio.Event()
        self._closed = False

    @property
    def pending_depth(self) -> int:
        return self.batcher.pending_depth

    @property
    def closed(self) -> bool:
        return self._closed

    # -- client API ------------------------------------------------------------

    async def decide(
        self, network_id: int, policy: int, observation: np.ndarray
    ) -> Decision | ShedDecision:
        """Answer one decision request (may wait for peers to batch with)."""
        while True:
            if self._closed:
                raise ExecutionError("decision server is draining")
            if not self.batcher.full:
                break
            refused = self.batcher.refuse(network_id, policy, observation)
            if refused is not None:
                return refused
            # queue: wait until a flush frees capacity, then re-check.
            self._space.clear()
            await self._space.wait()
        batcher = self.batcher
        future = asyncio.get_running_loop().create_future()
        self._futures.append(future)
        if self._timer is not None and batcher.pending_depth + 1 < batcher.max_batch:
            # The timer is armed and this request cannot fill the batch:
            # the enqueue answers nobody and needs no timer, so skip _run.
            try:
                batcher.enqueue(network_id, policy, observation)
            except Exception:
                self._futures.pop()
                raise
        else:
            self._run(batcher.enqueue, network_id, policy, observation)
        return await future

    # -- lifecycle -------------------------------------------------------------

    async def stop(self) -> None:
        """Refuse new work, answer everything queued, release waiters."""
        self._closed = True
        self._run(self.batcher.drain)
        self._space.set()
        # Let resolved futures' awaiters run before we return.
        await asyncio.sleep(0)

    # -- internals -------------------------------------------------------------

    def _on_deadline(self) -> None:
        # Flush unconditionally, not through poll(): asyncio may run a
        # call_at handle up to one clock resolution early, when poll()'s
        # deadline check would flush nothing and leave no timer armed.
        self._timer = None
        self._run(self.batcher.flush)

    def _run(self, step, *args) -> None:
        """Run one batcher step, answer its futures, wake waiters, re-arm.

        Keeps one future per queued request, in the batcher's order. If
        the step raises, the futures of the requests it took off the
        queue (a failed flush) or never queued (a bad enqueue) get the
        error, so later answers still reach their own callers.
        """
        depth = self.batcher.pending_depth
        try:
            outcomes = step(*args)
            take = self._futures.popleft
        except Exception as exc:
            failed = len(self._futures) - self.batcher.pending_depth
            outcomes = [exc] * failed
            # An unchanged depth means the request never reached the
            # queue: its future is the newest, not the oldest. (With
            # max_batch 1 a failed enqueue flush also leaves the depth
            # unchanged, but then the one future is both.)
            unqueued = self.batcher.pending_depth == depth
            take = self._futures.pop if unqueued else self._futures.popleft
        for outcome in outcomes:
            future = take()
            if future.done():  # skip a cancelled waiter
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)
        if outcomes:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            if not self.batcher.full:
                self._space.set()
        if self._timer is None and self.batcher.pending_depth:
            self._timer = asyncio.get_running_loop().call_at(
                self.batcher.next_deadline(), self._on_deadline
            )


__all__ = ["DecisionServer"]
