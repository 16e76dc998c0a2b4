"""Shared fixtures for the figure and study benchmarks.

A benchmark computes its data (timed once via ``benchmark.pedantic``),
asserts the qualitative shape the paper reports, prints the table to the
terminal (bypassing capture), writes it to
``benchmarks/results/<test>.txt`` and snapshots the stage timings to
``benchmarks/results/BENCH_<fn>.json``.

Budgets: the evaluation slot count defaults to the paper's 20 000 and can
be reduced for quick runs with ``REPRO_BENCH_SLOTS=2000 pytest benchmarks/``;
set ``REPRO_WORKERS=4`` (or ``auto``) to fan each figure's Monte-Carlo
grid over a process pool.

Budget variables (``REPRO_BENCH_SLOTS`` here, ``REPRO_FIELD_SCALE_*``,
``REPRO_SERVE_BENCH_*``, ``REPRO_TELEM_BENCH_*`` and
``REPRO_SELFPLAY_EPISODES`` in the benches) are read with :func:`budget`:
the library's knob grammar without being library knobs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import knobs
from repro.exec import timing
from repro.exec.runner import resolve_workers
from repro.obs import trace as obs_trace

RESULTS_DIR = Path(__file__).parent / "results"


def budget(name: str, default, *, kind: str = "int", minimum=1, **grammar):
    """Benchmark budget ``name`` from the environment, under the knob grammar.

    Empty or whitespace-only means ``default``; a bad value raises
    :class:`repro.errors.ConfigurationError` naming the variable. A tuple
    ``default`` reads a comma list whose items each follow the grammar.
    """
    knob = knobs.Knob(name, kind, default, "budget", minimum=minimum, **grammar)
    raw = os.environ.get(name)
    if isinstance(default, tuple) and raw is not None and raw.strip():
        items = [item for item in raw.split(",") if item.strip()]
        return tuple(knobs.parse(knob, item) for item in items)
    return knobs.parse(knob, raw)


#: Paper budget: each simulated experiment runs 20 000 time slots.
BENCH_SLOTS = budget("REPRO_BENCH_SLOTS", 20000)

#: Field-experiment budget (slots are 3 s each in the paper; 1000 slots
#: would be ~50 minutes of simulated wall-clock).
FIELD_SLOTS = budget("REPRO_FIELD_SLOTS", 600)

#: DQN training budget for the Fig. 11 benchmark.
DQN_EPISODES = budget("REPRO_DQN_EPISODES", 100)


@pytest.fixture(scope="session")
def bench_slots() -> int:
    return BENCH_SLOTS


@pytest.fixture(scope="session")
def field_slots() -> int:
    return FIELD_SLOTS


@pytest.fixture
def report(request, capsys):
    """Print a result table to the terminal and persist it to disk."""

    def _report(text: str, name: str | None = None) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        name = name or request.node.name.replace("/", "_")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _report


def run_once(benchmark, fn, *args, stage: str | None = None, **kwargs):
    """Time ``fn`` exactly once (figure computations are minutes-scale).

    Wall-clock lands in the timing registry under ``stage`` (default: the
    function's name) and the whole registry is snapshotted to
    ``BENCH_<stage>.json`` — the per-stage perf trajectory artifact for
    this benchmark run.
    """
    name = stage or fn.__name__
    with obs_trace.span(f"bench/{name}"), timing.REGISTRY.stage(name):
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    timing.write_bench(
        name,
        directory=RESULTS_DIR,
        extra={
            "workers": resolve_workers(),
            "bench_slots": BENCH_SLOTS,
            "field_slots": FIELD_SLOTS,
            "dqn_episodes": DQN_EPISODES,
        },
    )
    return result
