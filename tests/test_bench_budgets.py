"""Benchmark budget variables share the knob grammar without being knobs."""

import importlib.util
from pathlib import Path

import pytest

from repro import knobs
from repro.errors import ConfigurationError

BENCH_CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def budget():
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.budget


def test_bad_value_names_the_variable(budget, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_BENCH_NETWORKS", "lots")
    with pytest.raises(ConfigurationError, match="REPRO_SERVE_BENCH_NETWORKS"):
        budget("REPRO_SERVE_BENCH_NETWORKS", 256)


@pytest.mark.parametrize("raw", ["", "  "])
def test_blank_means_default(budget, monkeypatch, raw):
    monkeypatch.setenv("REPRO_BENCH_SLOTS", raw)
    assert budget("REPRO_BENCH_SLOTS", 20000) == 20000


def test_comma_list_items_follow_the_grammar(budget, monkeypatch):
    name = "REPRO_FIELD_SCALE_NETWORKS"
    monkeypatch.setenv(name, " 16, 64 ,")
    assert budget(name, (16, 64, 256)) == (16, 64)
    monkeypatch.setenv(name, "16,0")
    with pytest.raises(ConfigurationError, match=name):
        budget(name, (16, 64, 256))


def test_budgets_are_not_library_knobs():
    budgets = ("REPRO_BENCH_SLOTS", "REPRO_FIELD_SLOTS", "REPRO_DQN_EPISODES")
    assert not set(budgets) & set(knobs.KNOBS)
