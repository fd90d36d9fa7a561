"""Every definition in ``src/repro`` has a caller outside the tests.

The walk collects each function, method and class that ``src/repro``
defines, and each module-level ``UPPER_CASE`` constant it assigns, and
each name that ``src/``, ``examples/`` and ``perfbench/`` read (a
``Name`` in load context, an ``Attribute`` or an import alias), plus the
text of the CI workflow.  A definition that none of them names is code that no
command, service path, example or benchmark reaches; delete it rather
than keep it for the tests.  An export alone keeps nothing alive: the
imports of a package ``__init__`` and string keys (``__all__``, the lazy
export map) are not references.

``KEEP`` names the few definitions kept on purpose, each with its
reason.  Dunders and ``do_*`` HTTP handlers are called by Python and by
``http.server``, never by name, so the walk skips them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CI = ROOT / ".github" / "workflows" / "ci.yml"

KEEP = {
    # Oracles: tests check the production path against them.
    "MnaSystem": "oracle: the per-device assembler behind mna_reference",
    "dc_gain": "oracle: checked against the early-stop open-loop sweep",
    "phase_margin": "oracle: checked against the early-stop open-loop sweep",
    "bandwidth_3db": "oracle: checked against the early-stop open-loop sweep",
    "is_connected": "oracle: the cut analysis behind the legal-move mask",
    "accounting": "oracle: RunReport's sim accounting in the fault tests",
    "annotate_parasitics": "oracle: the annotated circuit tests/eval/"
                           "test_benches.py checks the benches against; "
                           "also a perfbench tracer target",
    "step_group": "oracle: the checked group step; agents take masked "
                  "moves through move_group",
    # Helpers that many test files share.
    "server_thread": "test helper: serves repro.service.http in-process",
    "unit_context": "test helper: one unit's layout context",
    "device_centroid": "test helper: one device's centroid",
    "from_spice": "test helper: deck text to Circuit",
    "topology_cache_info": "test helper: compiled-topology cache state",
    "clear_topology_cache": "test helper: a cold compiled-topology cache",
    "gds": "test helper: OpPoint output conductance",
    "n_cells": "test helper: canvas size",
    "with_jobs": "test helper: an ExperimentConfig at another --jobs",
    "ql_sims_to": "test helper: convergence-ablation sims to a cost",
    "sa_sims_to": "test helper: convergence-ablation sims to a cost",
    # Experiments.
    "run_transfer": "experiment: island training vs cold fan-out (BENCH_4)",
    "format_transfer": "experiment: renders run_transfer's table",
}


CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def _constants(tree):
    """Yield the ``UPPER_CASE`` names a module body assigns."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                yield target


def _definitions():
    """Yield ``(name, path, line)`` for every def, class and module-level
    constant in src/repro."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for target in _constants(tree):
            yield target.id, path, target.lineno
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, path, node.lineno
            elif isinstance(node, ast.ClassDef):
                yield node.name, path, node.lineno
                stack.extend(node.body)


def _references():
    """Every name src/, examples/, perfbench/ and the CI workflow read."""
    names = set(re.findall(r"\w+", CI.read_text()))
    for top in ("src", "examples", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    if not isinstance(node.ctx, ast.Store):
                        names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    names.add(node.name.rpartition(".")[2])
    return names


def _skipped(name):
    dunder = name.startswith("__") and name.endswith("__")
    return dunder or name.startswith("do_")


def test_every_src_definition_is_referenced():
    references = _references()
    unreached = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, path, line in _definitions()
        if not _skipped(name)
        and name not in KEEP
        and name not in references
    ]
    assert not unreached, (
        "definitions no entry point names (delete them, or add a KEEP "
        "entry with its reason):\n" + "\n".join(sorted(unreached))
    )


def test_keep_entries_are_defined_and_needed():
    defined = {name for name, _, _ in _definitions()}
    references = _references()
    stale = sorted(
        name for name in KEEP
        if name not in defined or name in references
    )
    assert not stale, f"KEEP entries that are gone or now referenced: {stale}"
