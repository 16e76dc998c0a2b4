"""Every ``src/repro`` module is imported by a real entry point.

The walk parses imports (at any depth, lazy ones included) transitively
from the CLI, ``python -m repro``, every non-test file under
``benchmarks/`` and every file under ``examples/``. ``from repro.pkg
import Name`` resolves through the package's ``__init__`` re-exports to
the module that defines ``Name``; an ``__init__``'s own imports are not
followed, so a re-export alone keeps nothing alive. A package counts as
reached when any of its modules is. A module that only tests import
fails here: give it a caller, or delete it.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules kept in ``src/`` although no entry point imports them.
REFERENCE_MODULES = (
    # Model-free Q-learning: the oracle that tests hold value_iteration to.
    "repro.core.qlearning",
)

ENTRY_MODULES = ("repro.cli", "repro.__main__")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


@lru_cache(maxsize=None)
def _imports(path: Path) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """``(module, names)`` per import statement; ``names`` empty for ``import``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: the walk reads absolute imports only"
            out.append((node.module, tuple(alias.name for alias in node.names)))
    return tuple(out)


def _defining_module(module: str, name: str, seen: frozenset = frozenset()) -> str:
    """The module behind ``from module import name``."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module not in PACKAGES or (module, name) in seen:
        return module
    for source, names in _imports(MODULES[module]):
        if name in names and source in MODULES:
            return _defining_module(source, name, seen | {(module, name)})
    return module


def _targets(path: Path) -> set[str]:
    """The ``repro`` modules one file's imports reach directly."""
    found = set()
    for module, names in _imports(path):
        if module not in MODULES:
            continue
        if not names or "*" in names:
            found.add(module)
        found.update(_defining_module(module, name) for name in names)
    return found


def _roots() -> list[Path]:
    benches = [
        path
        for path in sorted((ROOT / "benchmarks").rglob("*.py"))
        if not path.name.startswith("test_")
    ]
    examples = sorted((ROOT / "examples").rglob("*.py"))
    return [MODULES[name] for name in ENTRY_MODULES] + benches + examples


def reached_modules() -> set[str]:
    reached = set(ENTRY_MODULES)
    frontier = [target for root in _roots() for target in _targets(root)]
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        if module not in PACKAGES:
            frontier.extend(_targets(MODULES[module]))
    for module in list(reached):
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return reached


def test_every_module_has_an_entry_point():
    unreached = sorted(set(MODULES) - reached_modules() - set(REFERENCE_MODULES))
    assert not unreached, f"only tests import {unreached}"


def test_reference_modules_exist_and_are_unreached():
    # An exemption that outlived its module, or that a real caller now
    # covers, should go.
    reached = reached_modules()
    for module in REFERENCE_MODULES:
        assert module in MODULES, module
        assert module not in reached, module

