"""Every paper figure at the full budget: timed, printed and checked.

One test per row of :data:`repro.analysis.registry.FIGURES` that states
a claim. Each computes its row once at the paper's budget (timed with
``run_once`` into ``BENCH_<key>.json``, e.g. ``BENCH_fig6_7_8.json``),
writes the table ``repro figure`` prints plus one verdict line per claim
to ``results/<key>.txt``, and fails if a claim does not hold or an
``open`` claim (a known deviation) starts to hold.

Budgets: ``REPRO_BENCH_SLOTS`` (sweep slots, paper 20 000),
``REPRO_FIELD_SLOTS`` (600) and ``REPRO_DQN_EPISODES`` (100); the
tier-1 budget of the same claims is ``tests/claims``.
"""

import dataclasses

import pytest
from conftest import BENCH_SLOTS, DQN_EPISODES, FIELD_SLOTS, run_once

from repro.analysis.registry import FIGURES, PAPER_BUDGET

BUDGET = dataclasses.replace(
    PAPER_BUDGET,
    sweep_slots=BENCH_SLOTS,
    field_slots=FIELD_SLOTS,
    dqn_episodes=DQN_EPISODES,
)


@pytest.mark.parametrize(
    "figure",
    [figure for figure in FIGURES if figure.claims],
    ids=lambda figure: figure.key,
)
def test_figure(benchmark, report, figure):
    data = run_once(benchmark, figure.compute, BUDGET, stage=figure.key)
    verdicts = [(claim, bool(claim.holds(data))) for claim in figure.claims]
    lines = [
        f"{'open claim' if claim.open else 'claim'} "
        f"{'holds' if held else 'does not hold'}: {claim.text}"
        for claim, held in verdicts
    ]
    table = figure.render(data).rstrip("\n")
    report(table + "\n\n" + "\n".join(lines), figure.key)
    wrong = [claim.text for claim, held in verdicts if held == claim.open]
    assert not wrong, wrong
