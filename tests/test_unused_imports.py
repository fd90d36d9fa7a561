"""Every imported name is used by the module that imports it.

No linter runs on this repository, so this is an ``ast`` scan of
``src/``, ``tests/``, ``examples/`` and ``benchmarks/``: for each module,
every name an ``import`` binds (at module level or inside a function)
must be read somewhere in the module.  A name counts as read when it is
loaded as a variable, used as the base of an attribute, named inside a
quoted annotation (``-> "QTable"``) or listed in the module's
``__all__``.  Package ``__init__.py`` files re-export by design and are
skipped, as are ``from __future__`` imports and lines marked
``# noqa: F401``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "examples", "benchmarks")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside the quoted parts of an annotation."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> set[str]:
    """The names a module-level ``__all__`` lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every import in ``path`` that its module never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    for annotation in _annotations(tree):
        used |= _annotation_names(annotation)
    return [(line, name) for line, name in imported if name not in used]


def _modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_quoted_annotations_and_noqa(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import json\n"
        "import os  # noqa: F401\n"
        "from typing import Any\n"
        "from collections import OrderedDict\n"
        "def f(x: 'dict[str, Any]') -> 'OrderedDict':\n"
        "    import math\n"
        "    return x\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(1, "json"), (6, "math")]
