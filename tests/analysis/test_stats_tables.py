"""Tests for statistics helpers and table rendering."""

import pytest

from repro.analysis.stats import summarize
from repro.analysis.tables import format_float, render_table
from repro.errors import SimulationError


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == 2.0
        assert s.minimum == 1.0 and s.maximum == 3.0

    def test_single_sample_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            summarize([])

    def test_as_dict(self):
        d = summarize([1.0, 2.0]).as_dict()
        assert set(d) == {"n", "mean", "std", "min", "max"}


class TestTables:
    def test_render_basic(self):
        text = render_table(["a", "b"], [[1, 2.5], [3, 4.0]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.500" in text

    def test_title(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_row_width_mismatch(self):
        with pytest.raises(SimulationError):
            render_table(["a", "b"], [[1]])

    def test_no_headers(self):
        with pytest.raises(SimulationError):
            render_table([], [])

    def test_empty_rows_ok(self):
        text = render_table(["only", "headers"], [])
        assert "only" in text

    def test_format_float(self):
        assert format_float(1.23456, 2) == "1.23"
        assert format_float(7) == "7"
        assert format_float("x") == "x"
        assert format_float(float("nan")) == "nan"
        assert format_float(True) == "True"
