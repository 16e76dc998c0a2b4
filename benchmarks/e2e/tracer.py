"""In-memory layer tracing for the end-to-end benchmark.

The benchmark measures the library from outside: a :class:`Tracer`
replaces named public callables (module functions or class methods) with
timing wrappers for the duration of a traced round and restores them
afterwards. Nothing inside ``src/`` knows it is being traced.

Two kinds of trace point:

* ``span`` — per-slot, per-step and per-flush calls. Each call becomes a
  span ``(name, start, end, parent, round)`` kept in memory.
* ``count`` — per-network methods called thousands of times per slot.
  They only accumulate a call count and time, to keep overhead low.

Every wrapped call, of either kind, subtracts the time of the wrapped
calls it made from its own duration, so a layer's *self time* never
double-counts a nested layer. The round itself is the root span: its
self time is the round wall time minus every layer's self time, which is
the workload's residual.

The clock is ``time.monotonic``, the clock asyncio's ``loop.time()``
reads, so serving spans line up with request timestamps.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class TracePoint:
    """One callable to wrap: ``owner.attr`` is attributed to ``layer``.

    ``note``, for spans, maps the call's positional arguments to a number
    stored with the span (a batch size, say).
    """

    owner: object
    attr: str
    layer: str
    kind: str = "span"  # "span" or "count"
    note: Callable[[tuple], float] | None = None

    @property
    def label(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


@dataclass
class RoundTrace:
    """What one traced round recorded."""

    wall_s: float
    self_s: dict[str, float]
    calls: dict[str, int]
    first_span: int
    end_span: int


class Tracer:
    """Wraps trace points, records spans and per-layer self time by round."""

    def __init__(self, points: list[TracePoint], *, root_layer: str) -> None:
        self.points = list(points)
        self.root_layer = root_layer
        self.clock = time.monotonic
        #: Spans as ``[label, start, end, parent_index, round, note]``.
        self.spans: list[list] = []
        self.rounds: list[RoundTrace] = []
        self._self: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        # Open frames: [time spent in wrapped children, span index or -1].
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def _wrapper(self, point: TracePoint, original):
        clock = self.clock
        stack = self._stack
        spans = self.spans
        self_time = self._self
        calls = self._calls
        layer = point.layer
        label = point.label
        is_span = point.kind == "span"
        note = point.note

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            start = clock()
            if is_span:
                index = len(spans)
                spans.append(
                    [
                        label,
                        start,
                        start,
                        parent,
                        len(self.rounds),
                        note(args) if note is not None else None,
                    ]
                )
                frame = [0.0, index]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if is_span:
                    spans[frame[1]][2] = end

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        """Wrap every trace point; restore the originals on exit."""
        for point in self.points:
            owner = point.owner
            if isinstance(owner, type):
                original = owner.__dict__[point.attr]
            else:
                original = getattr(owner, point.attr)
            self._saved.append((owner, point.attr, original))
            setattr(owner, point.attr, self._wrapper(point, original))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- rounds ----------------------------------------------------------------

    @contextmanager
    def round(self, label: str):
        """Trace one round; its root span's self time is the residual."""
        if self._stack:
            raise RuntimeError("rounds do not nest")
        self._self.clear()
        self._calls.clear()
        first = len(self.spans)
        start = self.clock()
        self.spans.append([label, start, start, -1, len(self.rounds), None])
        frame = [0.0, first]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[first][2] = end
            self._self[self.root_layer] += (end - start) - frame[0]
            self.rounds.append(
                RoundTrace(
                    wall_s=end - start,
                    self_s=dict(self._self),
                    calls=dict(self._calls),
                    first_span=first,
                    end_span=len(self.spans),
                )
            )

    def round_spans(self, index: int, label: str) -> list[list]:
        """Spans named ``label`` recorded during round ``index``."""
        trace = self.rounds[index]
        rows = self.spans[trace.first_span : trace.end_span]
        return [s for s in rows if s[0] == label]

    def export(self) -> dict:
        """JSON-ready spans of the last round, columnar to keep files small."""
        trace = self.rounds[-1]
        rows = self.spans[trace.first_span : trace.end_span]
        names = sorted({row[0] for row in rows})
        code = {name: i for i, name in enumerate(names)}
        base = rows[0][1] if rows else 0.0
        return {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent", "round", "note"],
            "rows": [
                [
                    code[name],
                    round((start - base) * 1e6, 1),
                    round((end - base) * 1e6, 1),
                    parent - trace.first_span if parent >= 0 else -1,
                    rnd,
                    note,
                ]
                for name, start, end, parent, rnd, note in rows
            ],
        }
