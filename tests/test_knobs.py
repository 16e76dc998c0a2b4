"""Tests for the knob registry: one grammar and one error type for every knob."""

import ast
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import knobs
from repro.channel.fidelity import CHANNEL_TIERS
from repro.errors import ConfigurationError
from repro.exec import ON_ERROR_MODES, FaultPolicy
from repro.exec.timing import TimingRegistry
from repro.jamming.jammer import ADVERSARIES
from repro.serve.batcher import ADMISSION_MODES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: What each resolver returned with no ``REPRO_*`` variable set before the
#: registry existed.
PARENT_DEFAULTS = {
    "REPRO_WORKERS": 1,
    "REPRO_ON_ERROR": "raise",
    "REPRO_MAX_RETRIES": 2,
    "REPRO_TASK_TIMEOUT": None,
    "REPRO_FAULT_RATE": 0.0,
    "REPRO_FAULT_SEED": 0,
    "REPRO_ENV_BATCH": 8,
    "REPRO_CHANNEL": "analytic",
    "REPRO_CALIBRATION": None,
    "REPRO_PER_CACHE": 65536,
    "REPRO_JAMMER_BANK": 32768,
    "REPRO_SHARDS": 1,
    "REPRO_FIELD_BATCH": 64,
    "REPRO_ADVERSARIES": ("sweep", "reactive", "follower", "learning"),
    "REPRO_SERVE_BATCH": 64,
    "REPRO_SERVE_DEADLINE_MS": 2.0,
    "REPRO_SERVE_QUEUE": 256,
    "REPRO_SERVE_ADMISSION": "queue",
    "REPRO_TRACE": None,
    "REPRO_TRACE_SAMPLE": 1.0,
    "REPRO_TELEM": None,
    "REPRO_TELEM_INTERVAL": 20,
    "REPRO_PROFILE": False,
    "REPRO_BENCH_DIR": None,
}


@pytest.fixture
def no_knobs(monkeypatch):
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)


class TestTable:
    def test_defaults_match_the_resolvers_they_replace(self, no_knobs):
        assert knobs.resolved() == PARENT_DEFAULTS

    def test_every_default_resolves_to_itself(self):
        for knob in knobs.KNOBS.values():
            if knob.default is not None and knob.kind != "names":
                assert knobs.get(knob.name, knob.default) == knob.default

    def test_module_choice_sets_come_from_the_table(self):
        assert ON_ERROR_MODES == knobs.KNOBS["REPRO_ON_ERROR"].choices
        assert CHANNEL_TIERS == knobs.KNOBS["REPRO_CHANNEL"].choices
        assert ADMISSION_MODES == knobs.KNOBS["REPRO_SERVE_ADMISSION"].choices
        assert ADVERSARIES == knobs.KNOBS["REPRO_ADVERSARIES"].default

    def test_only_the_registry_reads_the_environment(self):
        readers = sorted(
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if "os.environ" in path.read_text() or "getenv" in path.read_text()
        )
        assert readers == ["knobs.py"]


def _is_knobs_table(node) -> bool:
    """``knobs.KNOBS`` or a bare ``KNOBS``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "KNOBS"
    return isinstance(node, ast.Name) and node.id == "KNOBS"


def _mirrors(tree) -> list[str]:
    """Module-level names bound to a knob's name or to its table default."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        text = value.value if isinstance(value, ast.Constant) else None
        names_a_knob = isinstance(text, str) and text.startswith("REPRO_")
        copies_a_default = (
            isinstance(value, ast.Attribute)
            and value.attr == "default"
            and isinstance(value.value, ast.Subscript)
            and _is_knobs_table(value.value.value)
        )
        if names_a_knob or copies_a_default:
            found += [ast.unparse(target) for target in targets]
    return found


def _library_modules():
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "knobs.py" or path.parent != SRC:
            yield path, ast.parse(path.read_text())


class TestOneHome:
    """``knobs.KNOBS`` is the only home of a knob's name and default."""

    def test_no_module_mirrors_a_knob(self):
        mirrors = {
            str(path.relative_to(SRC)): names
            for path, tree in _library_modules()
            if (names := _mirrors(tree))
        }
        assert mirrors == {}

    def test_every_knob_is_read_by_the_library(self):
        named = {
            node.value
            for _, tree in _library_modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert sorted(set(knobs.KNOBS) - named) == []

    def test_the_guard_sees_both_mirror_forms(self):
        lines = [
            'X_ENV = "REPRO_X"',
            "DEFAULT_X: int = knobs.KNOBS[X_ENV].default",
            'CHOICES = knobs.KNOBS["REPRO_X"].choices',
        ]
        tree = ast.parse("\n".join(lines))
        assert _mirrors(tree) == ["X_ENV", "DEFAULT_X"]


#: ``REPRO_X:`` in an ``env:`` block, or an inline ``REPRO_X=...`` prefix.
_CI_SETS = re.compile(r"^\s+(REPRO_[A-Z0-9_]+):|(?:^|\s)(REPRO_[A-Z0-9_]+)=", re.M)


def test_ci_sets_only_knobs_and_benchmark_budgets():
    """A retired knob left in CI would be silently ignored; this fails instead."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    lines = [line for line in ci.splitlines() if not line.lstrip().startswith("#")]
    set_in_ci = {a or b for a, b in _CI_SETS.findall("\n".join(lines))}
    budgets = {
        name
        for path in (ROOT / "benchmarks").rglob("*.py")
        for name in re.findall(r'budget\(\s*"(REPRO_[A-Z0-9_]+)"', path.read_text())
    }
    assert set_in_ci, "no REPRO_* variable found in ci.yml"
    assert sorted(set_in_ci - set(knobs.KNOBS) - budgets) == []


class TestEmptyMeansUnset:
    @pytest.mark.parametrize("name", sorted(knobs.KNOBS))
    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_is_default(self, monkeypatch, name, blank):
        monkeypatch.setenv(name, blank)
        assert knobs.get(name) == knobs.KNOBS[name].default
        assert knobs.get(name, blank) == knobs.KNOBS[name].default

    def test_regressions(self, monkeypatch):
        from repro.channel.link import resolve_per_cache_capacity

        monkeypatch.setenv("REPRO_PER_CACHE", "   ")
        assert resolve_per_cache_capacity() == 65536
        monkeypatch.setenv("REPRO_ADVERSARIES", "")
        assert knobs.get("REPRO_ADVERSARIES") == ADVERSARIES


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(knobs.KNOBS)), text=st.text())
def test_any_text_resolves_or_names_the_knob(name, text):
    try:
        knobs.get(name, text)
    except ConfigurationError as exc:
        assert name in str(exc)


class TestOneGrammar:
    def test_choices_ignore_case(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "RETRY")
        assert FaultPolicy.from_env().on_error == "retry"
        monkeypatch.setenv("REPRO_SERVE_ADMISSION", "SHED")
        assert knobs.get("REPRO_SERVE_ADMISSION") == "shed"
        assert knobs.get("REPRO_ADVERSARIES", " Reactive, FOLLOWER ") == (
            "reactive",
            "follower",
        )

    @pytest.mark.parametrize(
        "name",
        [
            "REPRO_ENV_BATCH",
            "REPRO_FIELD_BATCH",
            "REPRO_SERVE_BATCH",
        ],
    )
    @pytest.mark.parametrize("word", ["off", "none", " None "])
    def test_off_means_one_item_per_batch(self, name, word):
        assert knobs.get(name, word) == 1

    @pytest.mark.parametrize("name", ["REPRO_PER_CACHE", "REPRO_JAMMER_BANK"])
    @pytest.mark.parametrize("word", ["off", "none", "OFF"])
    def test_off_means_empty_cache(self, name, word):
        assert knobs.get(name, word) == 0

    @pytest.mark.parametrize("name", ["REPRO_WORKERS", "REPRO_SHARDS"])
    def test_auto_is_the_cpu_count(self, name):
        assert knobs.get(name, "auto") == (os.cpu_count() or 1)
        assert knobs.get(name, "AUTO") == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        ("name", "bad"),
        [
            ("REPRO_ENV_BATCH", "0"),
            ("REPRO_CHANNEL", "exact"),
            ("REPRO_PER_CACHE", "-1"),
            ("REPRO_ADVERSARIES", "reactive,bogus"),
            ("REPRO_ADVERSARIES", ","),
            ("REPRO_TRACE_SAMPLE", "nan"),
            ("REPRO_FAULT_SEED", "-1"),
        ],
    )
    def test_bad_values_raise_one_type_naming_the_knob(self, monkeypatch, name, bad):
        monkeypatch.setenv(name, bad)
        with pytest.raises(ConfigurationError, match=f"{name} must be .*got '{bad}'"):
            knobs.get(name)


class TestArtifactHeaders:
    def test_bench_header_lists_every_knob(self, no_knobs, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        doc = TimingRegistry().write_bench("knobs", directory=tmp_path).read_text()
        assert '"workers_env"' not in doc
        header = json.loads(doc)["knobs"]
        assert set(header) == set(knobs.KNOBS)
        assert header["REPRO_SHARDS"] == 3


class TestReadme:
    def test_library_table_matches_the_registry(self):
        lines = (ROOT / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("Library"))
        rows = {}
        for line in lines[start:]:
            if line.startswith("| `REPRO_"):
                name, _, default = (cell.strip() for cell in line.strip("|").split("|"))
                rows[name.strip("`")] = default.strip("`")
            elif rows and not line.startswith("|"):
                break
        assert sorted(rows) == sorted(knobs.KNOBS)
        for name, default in rows.items():
            assert default == _readme_default(knobs.KNOBS[name].default), name


def _readme_default(value) -> str:
    if value is None:
        return "unset"
    if value is False:
        return "off"
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)
