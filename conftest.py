"""Test helpers shared by ``tests/`` and ``benchmarks/``.

The analyses build their assembler through one factory,
``compiled_system``, and the evaluator's suites bind theirs through
:meth:`repro.eval.warm.WarmStore.system_for`.  The ``mna_reference``
fixture swaps both for the per-device :class:`repro.sim.mna.MnaSystem`,
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
    from repro.eval.warm import WarmStore
    from repro.sim import ac, dc, noise, transient
    from repro.sim.mna import MnaSystem

    def system_for(self, stage, circuit, tech, deltas):
        return MnaSystem(circuit, tech, deltas)

    @contextmanager
    def use():
        with monkeypatch.context() as patch:
            for module in (ac, dc, noise, transient):
                patch.setattr(module, "compiled_system", MnaSystem)
            patch.setattr(WarmStore, "system_for", system_for)
            yield

    return use
