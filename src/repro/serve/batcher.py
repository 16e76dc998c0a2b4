"""Micro-batching scheduler for the decision service.

This module is the one home of the serving rules: the four
``REPRO_SERVE_*`` knobs, the pending FIFO of plain ``(network_id, policy,
observation, submitted_at)`` tuples, admission control, and the flush
(stacked forward, ``serve.*`` metrics, one :class:`Decision` per
request). Both front-ends run them: :class:`MicroBatcher` on its own,
and the asyncio :class:`~repro.serve.server.DecisionServer` through one
batcher.

Concurrent decision requests are coalesced under a size-or-deadline
trigger into single stacked forward passes through the
:class:`~repro.serve.store.PolicyStore`, with results fanned back per
request. The paper's latency budget (Fig. 9: ~9 ms per DQN decision plus
13.1 ms of polling overhead) is the design constraint: a batch must
flush either when it is full (``REPRO_SERVE_BATCH``) or when its oldest
request has waited the deadline (``REPRO_SERVE_DEADLINE_MS``), never
later.

Admission control mirrors :mod:`repro.exec.faults` semantics — a typed
sentinel instead of an exception, and a degrade-to-serial fallback
instead of a hard failure:

* ``queue`` — when the queue is full, flush immediately to make room
  (the asyncio server instead blocks the caller until capacity frees up).
* ``shed`` — refuse the request with a :class:`ShedDecision` sentinel,
  the analogue of ``faults.TaskFailure`` for skipped tasks.
* ``degrade`` — answer the overflow request serially right away
  (batch of one), the analogue of the process pool degrading to serial
  execution after a pool failure. Its latency is the serial forward
  time on the batcher's clock (so 0.0 on a virtual clock).

All timing flows through a clock object, so driving the batcher with a
:class:`~repro.serve.clock.VirtualClock` makes every flush instant — and
therefore every recorded latency — exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import knobs
from repro.obs.metrics import METRICS
from repro.serve.clock import MonotonicClock
from repro.serve.store import PolicyStore

#: Admission-control modes (see module docstring).
ADMISSION_MODES = knobs.KNOBS["REPRO_SERVE_ADMISSION"].choices


@dataclass(frozen=True)
class Decision:
    """A served action, annotated with how it was served."""

    network_id: int
    action: int
    batch_size: int
    latency_s: float
    degraded: bool = False


@dataclass(frozen=True)
class ShedDecision:
    """Typed refusal sentinel (the ``TaskFailure`` of the serving layer)."""

    network_id: int
    queue_depth: int
    reason: str = "queue-full"


class MicroBatcher:
    """Synchronous size-or-deadline micro-batcher over a policy store.

    :meth:`submit` returns whatever decisions the submission caused to be
    served (a full batch flushing, an admission outcome) — usually an
    empty list while the batch is still filling. It is :meth:`refuse`
    then :meth:`enqueue`, the two steps the asyncio front-end in
    :mod:`repro.serve.server` calls directly. The driver is responsible
    for polling :meth:`poll` when :meth:`next_deadline` passes and
    calling :meth:`drain` at the end; the server arms a loop timer that
    calls :meth:`flush` instead.
    """

    def __init__(
        self,
        store: PolicyStore,
        *,
        max_batch: int | str | None = None,
        deadline_ms: float | str | None = None,
        queue_limit: int | str | None = None,
        admission: str | None = None,
        clock=None,
    ) -> None:
        self.store = store
        self.max_batch = knobs.get("REPRO_SERVE_BATCH", max_batch)
        self.deadline_s = knobs.get("REPRO_SERVE_DEADLINE_MS", deadline_ms) / 1000.0
        self.queue_limit = knobs.get("REPRO_SERVE_QUEUE", queue_limit)
        self.admission = knobs.get("REPRO_SERVE_ADMISSION", admission)
        self.clock = clock if clock is not None else MonotonicClock()
        # (network_id, policy, observation, submitted_at), oldest first.
        self._pending: list[tuple[int, int, np.ndarray, float]] = []

    @property
    def pending_depth(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        """Whether the pending queue is at ``queue_limit``."""
        return len(self._pending) >= self.queue_limit

    def next_deadline(self) -> float | None:
        """When the oldest pending request must be flushed (None if idle)."""
        if not self._pending:
            return None
        return self._pending[0][3] + self.deadline_s

    def submit(
        self, network_id: int, policy: int, observation: np.ndarray
    ) -> list[Decision | ShedDecision]:
        """Enqueue one request; returns any decisions this submit produced."""
        refused = self.refuse(network_id, policy, observation)
        if refused is not None:
            return [refused]
        # Convert before making room: a malformed request must raise while
        # the queue is untouched, not after a flush whose answers it drops.
        network_id, policy = int(network_id), int(policy)
        observation = np.asarray(observation, dtype=np.float64)
        # queue: flush immediately to make room.
        produced = self.flush() if self.full else []
        return produced + self.enqueue(network_id, policy, observation)

    def refuse(
        self, network_id: int, policy: int, observation: np.ndarray
    ) -> Decision | ShedDecision | None:
        """Answer a request the full queue cannot take, per admission mode.

        ``None`` means the request is for the queue: there is room, or the
        mode is ``queue`` and the caller makes room (this batcher flushes,
        the asyncio server waits for a flush). A degraded answer's latency
        is its serial forward time on this batcher's clock.
        """
        if not self.full or self.admission == "queue":
            return None
        if self.admission == "shed":
            METRICS.inc("serve.shed")
            return ShedDecision(
                network_id=int(network_id), queue_depth=len(self._pending)
            )
        started = self.clock.now()
        action = self.store.decide_serial(policy, observation)
        latency = self.clock.now() - started
        METRICS.inc("serve.degraded")
        METRICS.inc("serve.decisions")
        METRICS.observe("serve.batch_size", 1)
        METRICS.observe("serve.latency_s", latency)
        return Decision(
            network_id=int(network_id),
            action=action,
            batch_size=1,
            latency_s=latency,
            degraded=True,
        )

    def enqueue(
        self, network_id: int, policy: int, observation: np.ndarray
    ) -> list[Decision]:
        """Queue one request, flushing the batch if this fills it.

        Admission is the caller's: see :meth:`refuse`.
        """
        now = self.clock.now()
        self._pending.append(
            (
                int(network_id),
                int(policy),
                np.asarray(observation, dtype=np.float64),
                now,
            )
        )
        if len(self._pending) >= self.max_batch:
            return self.flush(now)
        return []

    def poll(self, now: float | None = None) -> list[Decision]:
        """Flush if the oldest pending request's deadline has passed."""
        if now is None:
            now = self.clock.now()
        deadline = self.next_deadline()
        if deadline is None or now < deadline:
            return []
        return self.flush(now)

    def drain(self) -> list[Decision]:
        """Flush everything still pending (graceful shutdown).

        One flush suffices: a queue reaching ``max_batch`` flushes at once.
        """
        return self.flush()

    def flush(self, now: float | None = None) -> list[Decision]:
        """Serve the oldest ``max_batch`` pending requests now, deadline or not.

        One stacked forward answers the whole batch; each decision's
        latency is ``now`` minus its own submit time.
        """
        if not self._pending:
            return []
        if now is None:
            now = self.clock.now()
        batch = self._pending[: self.max_batch]
        self._pending = self._pending[self.max_batch :]
        size = len(batch)
        network_ids, policies, observations, submitted = zip(*batch)
        actions = self.store.decide_batch(
            np.array(policies, dtype=np.intp), np.stack(observations)
        ).tolist()
        METRICS.inc("serve.decisions", size)
        METRICS.inc("serve.batches")
        METRICS.observe("serve.batch_size", size)
        latencies = [max(now - at, 0.0) for at in submitted]
        METRICS.observe_many("serve.latency_s", latencies)
        return [
            Decision(network_id, action, size, latency)
            for network_id, action, latency in zip(network_ids, actions, latencies)
        ]


__all__ = [
    "ADMISSION_MODES",
    "Decision",
    "ShedDecision",
    "MicroBatcher",
]
