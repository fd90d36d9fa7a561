"""Breaking Symmetry — unconventional analog placement via multi-level,
multi-agent Q-learning.

Reproduction of Maji, Zhao, Poddar & Pan, "Late Breaking Results: Breaking
Symmetry — Unconventional Placement of Analog Circuits using Multi-Level
Multi-Agent Reinforcement Learning" (DAC 2025).

Quick start::

    from repro import (
        current_mirror, PlacementEvaluator, PlacementEnv, MultiLevelPlacer,
        banded_placement,
    )

    block = current_mirror()
    evaluator = PlacementEvaluator(block)
    target = evaluator.cost(banded_placement(block, "common_centroid"))
    env = PlacementEnv(block, evaluator.cost)
    placer = MultiLevelPlacer(env, sim_counter=lambda: evaluator.sim_count)
    result = placer.optimize(max_steps=600, target=target)
    print(result.best_cost, "vs symmetric", target)

Subpackages: :mod:`repro.core` (the RL framework + SA baseline),
:mod:`repro.netlist`, :mod:`repro.tech`, :mod:`repro.variation`,
:mod:`repro.sim`, :mod:`repro.layout`, :mod:`repro.route`,
:mod:`repro.eval`, :mod:`repro.experiments`, :mod:`repro.runtime`
(the parallel execution backends behind ``--jobs``),
:mod:`repro.train` (island-model shared-policy training campaigns) and
:mod:`repro.service` (the unified placement service: typed JSON
request/result schemas, the shared circuit registry, the versioned
policy store, the async job manager and the ``repro serve`` HTTP
layer).
"""

#: Top-level export → the module that defines it.  Exports load on first
#: access (PEP 562), so ``import repro.cli`` or ``from repro import
#: PlacementEnv`` pays only for the subpackages it actually touches.
_EXPORTS = {
    "EpsilonSchedule": "repro.core",
    "FlatQPlacer": "repro.core",
    "MultiLevelPlacer": "repro.core",
    "PlacerResult": "repro.core",
    "QAgent": "repro.core",
    "SimulatedAnnealingPlacer": "repro.core",
    "Metrics": "repro.eval",
    "PlacementEvaluator": "repro.eval",
    "compute_fom": "repro.eval",
    "Placement": "repro.layout",
    "PlacementEnv": "repro.layout",
    "banded_placement": "repro.layout",
    "render_placement": "repro.layout",
    "AnalogBlock": "repro.netlist",
    "Circuit": "repro.netlist",
    "comparator": "repro.netlist",
    "current_mirror": "repro.netlist",
    "five_transistor_ota": "repro.netlist",
    "folded_cascode_ota": "repro.netlist",
    "from_spice": "repro.netlist",
    "to_spice": "repro.netlist",
    "two_stage_ota": "repro.netlist",
    "ExecutionBackend": "repro.runtime",
    "ProcessPoolBackend": "repro.runtime",
    "RunSpec": "repro.runtime",
    "SerialBackend": "repro.runtime",
    "map_runs": "repro.runtime",
    "Technology": "repro.tech",
    "generic_tech_40": "repro.tech",
    "CampaignResult": "repro.train",
    "TrainingCampaign": "repro.train",
    "run_campaign": "repro.train",
    "VariationModel": "repro.variation",
    "default_variation_model": "repro.variation",
}

__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
