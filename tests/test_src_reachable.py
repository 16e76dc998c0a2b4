"""Every ``src/repro`` module and public name is reached by a real entry point.

The entry points are the CLI, ``python -m repro``, every non-test file
under ``benchmarks/`` and every file under ``examples/``.

Modules: the walk parses imports (at any depth, lazy ones included)
transitively from the entry points. ``from repro.pkg import Name``
resolves through the package's ``__init__`` re-exports to the module that
defines ``Name``; an ``__init__``'s own imports are not followed, so a
re-export alone keeps nothing alive. A package counts as reached when any
of its modules is.

Names: a second walk starts from every name the entry-point files use and
from the module-level code of every reached module (``__all__`` and
imports skipped, so neither an export list nor a re-export keeps a name
alive). A reached function, class or method adds the names its body uses.
A class's methods count one by one: a method is reached when its bare name
is used (or it is a dunder). Matching is by bare name (``Name`` loads,
attribute names and identifier strings, as in ``getattr(obj, "name")``),
so a collision can only keep a name alive.

A module, a public top-level function or class, or a public method of a
reached class that only tests reach fails here: give it a caller, or
delete it. There are no exceptions. Oracles that tests hold library code
to live in ``tests/oracles/``, which nothing under ``src/`` imports.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
    unreached = sorted(set(MODULES) - reached_modules())
    assert not unreached, f"only tests import {unreached}"


def test_src_imports_no_test_code():
    # The walk reads ``repro`` imports only, so a library module that
    # leaned on a test oracle would pass it and break once installed.
    leaks = sorted(
        f"{module} imports {source}"
        for module, path in MODULES.items()
        for source, _ in _imports(path)
        if source.partition(".")[0] == "tests"
    )
    assert not leaks, leaks


# -- names ------------------------------------------------------------------------

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _uses(*nodes: ast.AST) -> set[str]:
    """Bare names that ``nodes`` load, look up as attributes or spell as strings."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    found.add(node.value)
    return found


def _is_export_list(stmt: ast.stmt) -> bool:
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@lru_cache(maxsize=None)
def _definitions() -> dict[tuple[str, str], ast.AST]:
    """``(module, qualname)`` of every top-level definition and method."""
    found = {}
    for module, path in MODULES.items():
        for stmt in _tree(path).body:
            if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                found[(module, stmt.name)] = stmt
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, _FUNCTIONS):
                        found[(module, f"{stmt.name}.{item.name}")] = item
    return found


def _module_code(module: str) -> set[str]:
    """Names used by a module's own top-level statements."""
    skipped = (*_FUNCTIONS, ast.ClassDef, ast.Import, ast.ImportFrom)
    body = _tree(MODULES[module]).body
    return _uses(
        *(s for s in body if not isinstance(s, skipped) and not _is_export_list(s))
    )


def _own_code(node: ast.AST) -> list[ast.AST]:
    """What reaching ``node`` runs: all of a function; a class's bases,
    decorators and class-level statements (its methods count one by one)."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    statements = [s for s in node.body if not isinstance(s, _FUNCTIONS)]
    return [*node.decorator_list, *node.bases, *node.keywords, *statements]


def _reach(used: set[str]) -> set[tuple[str, str]]:
    """Definitions reached from ``used``, adding what each reached body uses."""
    used = set(used)
    reached: set[tuple[str, str]] = set()
    pending = dict(_definitions())
    while True:
        found = []
        for module, qualname in pending:
            owner, _, name = qualname.rpartition(".")
            if owner and (module, owner) not in reached:
                continue
            dunder = name.startswith("__") and name.endswith("__")
            if name in used or (owner and dunder):
                found.append((module, qualname))
        if not found:
            return reached
        for key in found:
            reached.add(key)
            used |= _uses(*_own_code(pending.pop(key)))


def _entry_uses() -> set[str]:
    entry_files = {MODULES[name] for name in ENTRY_MODULES}
    used = set()
    for root in _roots():
        if root not in entry_files:
            used |= _uses(_tree(root))
    for module in reached_modules():
        used |= _module_code(module)
    return used


@lru_cache(maxsize=None)
def live_names() -> frozenset[tuple[str, str]]:
    """Definitions the entry points reach."""
    return frozenset(_reach(_entry_uses()))


def test_every_public_name_has_an_entry_point():
    live = live_names()
    unreached = sorted(
        f"{module}.{qualname}"
        for module, qualname in _definitions()
        if "." not in qualname
        and not qualname.startswith("_")
        and (module, qualname) not in live
    )
    assert not unreached, f"only tests reach {unreached}"


def test_every_public_method_has_an_entry_point():
    # A reached class's public method is reached by its bare name alone;
    # one no entry point names is test-only API on live code.
    live = live_names()
    unreached = sorted(
        f"{module}.{qualname}"
        for module, qualname in _definitions()
        if "." in qualname
        and (module, qualname.partition(".")[0]) in live
        and not qualname.rpartition(".")[2].startswith("_")
        and (module, qualname) not in live
    )
    assert not unreached, f"only tests reach {unreached}"
