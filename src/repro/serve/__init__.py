"""Serving layer: trained policies as a high-throughput decision service.

The paper's defense loop is latency-bound — Fig. 9 budgets ~9 ms per DQN
decision plus 13.1 ms of polling — and a deployed controller answers for
a whole fleet of victim networks at once. This package runs trained
policies behind a micro-batching front-end:

* :class:`~repro.serve.store.PolicyStore` — P homogeneous policy
  networks (given directly or loaded from ``save_parameters`` artifacts)
  behind one cached stacked-inference handle; batched answers are
  bit-identical to per-request greedy actions.
* :class:`~repro.serve.batcher.MicroBatcher` — the one home of the
  serving rules: size-or-deadline batching (``REPRO_SERVE_BATCH``,
  ``REPRO_SERVE_DEADLINE_MS``), queue/shed/degrade admission control
  (``REPRO_SERVE_QUEUE``, ``REPRO_SERVE_ADMISSION``), the stacked flush
  and the ``serve.*`` metrics; deterministic under a
  :class:`~repro.serve.clock.VirtualClock`.
* :class:`~repro.serve.server.DecisionServer` — the asyncio front-end, a
  thin driver over one batcher on the loop's clock: per-request futures,
  the deadline timer, queue-mode waiting, graceful drain.
* :mod:`~repro.serve.loadgen` — a seeded closed-loop load generator
  driving either front-end (same seed, same request trace).
"""

from repro.serve.batcher import (
    ADMISSION_MODES,
    Decision,
    MicroBatcher,
    ShedDecision,
)
from repro.serve.clock import MonotonicClock, VirtualClock
from repro.serve.loadgen import (
    LoadGenConfig,
    LoadReport,
    run_closed_loop,
    run_server_load,
)
from repro.serve.server import DecisionServer
from repro.serve.store import PolicyStore

__all__ = [
    "ADMISSION_MODES",
    "Decision",
    "DecisionServer",
    "LoadGenConfig",
    "LoadReport",
    "MicroBatcher",
    "MonotonicClock",
    "PolicyStore",
    "ShedDecision",
    "VirtualClock",
    "run_closed_loop",
    "run_server_load",
]
