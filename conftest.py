"""Test helpers shared by ``tests/`` and ``benchmarks/``.

The analyses and the evaluator's suites build their assemblers through
one factory, ``compiled_system``.  The ``mna_reference`` fixture swaps
it for the per-device :class:`repro.sim.mna.MnaSystem`,
so the equivalence tests can run any solve — direct or through a
:class:`~repro.eval.evaluator.PlacementEvaluator` — on the reference
assembler and compare it with the compiled engine.
"""

from contextlib import contextmanager

import pytest


@pytest.fixture
def mna_reference(monkeypatch):
    """``with mna_reference():`` runs every scalar solve on ``MnaSystem``.

    Outside the ``with`` block the compiled engine is back in place.
    Placement-batched solves (:mod:`repro.sim.batch`) have no reference
    form and keep running on the compiled engine.
    """
    from repro.eval import suites
    from repro.sim import ac, dc
    from repro.sim.mna import MnaSystem

    @contextmanager
    def use():
        with monkeypatch.context() as patch:
            for module in (ac, dc, suites):
                patch.setattr(module, "compiled_system", MnaSystem)
            yield

    return use
