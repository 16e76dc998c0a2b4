"""Byte pin of every table ``repro figure`` prints.

Each case runs ``repro -q figure NAME`` at a small budget and compares
its stdout, byte for byte, with ``data/figure_pins.json``. The fixture
was generated once, before the figure code moved into one table of rows
(``repro.analysis.registry``), and is the oracle that the move changed
no printed digit, title or column. Do not regenerate it to make a
refactor pass; regenerate only for an intended change to a figure::

    PYTHONPATH=src python tests/analysis/test_figure_pins.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = Path(__file__).with_name("data") / "figure_pins.json"

#: Pin name -> ``repro figure`` arguments.
CASES = {
    **{
        name: [name, "--slots", "120", "--trials", "4"]
        for name in ("2b", "2b-wf", "6", "7", "8", "9a", "9b", "10", "11a", "11b")
    },
    "adv": ["adv", "--slots", "40", "--selfplay-episodes", "2"],
}

#: Knobs that change what a figure prints when set in the environment.
_OUTPUT_KNOBS = ("REPRO_CHANNEL", "REPRO_ADVERSARIES")


def _printed(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["-q", "figure", *args]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def pins() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_figure_prints_pinned_table(name, pins, monkeypatch):
    for knob in _OUTPUT_KNOBS:
        monkeypatch.delenv(knob, raising=False)
    assert _printed(CASES[name]) == pins[name]


if __name__ == "__main__":
    for knob in _OUTPUT_KNOBS:
        if knob in os.environ:
            sys.exit(f"unset {knob} before regenerating the figure pins")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({name: _printed(args) for name, args in CASES.items()}, indent=1)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
