"""Every claim of every figure row, checked at the tier-1 budget.

Each row of :data:`repro.analysis.registry.FIGURES` is computed once at
4000 sweep slots, 120 field slots and a DQN trained for 10 episodes; each
of its claims is one test. An ``open`` claim (a known deviation from the
paper) runs as a strict xfail: it fails once the reproduction meets it.
The full-budget check of the same claims is ``benchmarks/bench_figures.py``.
"""

from __future__ import annotations

import dataclasses
from functools import cache

import pytest

from repro.analysis.registry import FIGURES, PAPER_BUDGET, Figure

#: The tier-1 budget; 4000 sweep slots is the parameter-sweep cache entry
#: ``tests/analysis/test_figures.py`` computes too.
BUDGET = dataclasses.replace(
    PAPER_BUDGET, sweep_slots=4000, field_slots=120, dqn_episodes=10
)


@cache
def computed(figure: Figure):
    return figure.compute(BUDGET)


def _cases():
    for figure in FIGURES:
        for index, claim in enumerate(figure.claims):
            marks = (
                pytest.mark.xfail(strict=True, reason=f"open: {claim.text}")
                if claim.open
                else ()
            )
            yield pytest.param(figure, claim, id=f"{figure.key}-{index}", marks=marks)


@pytest.mark.parametrize("figure, claim", list(_cases()))
def test_claim(figure, claim):
    assert claim.holds(computed(figure)), claim.text


def test_every_paper_figure_states_a_claim():
    unclaimed = [figure.names for figure in FIGURES if not figure.claims]
    assert unclaimed == [("adv",)]


def test_fig8_sh_deviation_is_the_one_open_claim():
    open_claims = [
        (figure.names, claim.text)
        for figure in FIGURES
        for claim in figure.claims
        if claim.open
    ]
    assert len(open_claims) == 1
    names, text = open_claims[0]
    assert names == ("6", "7", "8") and "S_H" in text
    assert "0.6-0.8" in text and "0.2" in text
