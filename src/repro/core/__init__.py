"""The paper's contribution: multi-level multi-agent Q-learning placement.

* :class:`MultiLevelPlacer` — the proposed framework (top-level group
  agent + per-group unit agents, interleaved, episodic).
* :class:`FlatQPlacer` — single-table ablation control.
* :class:`SimulatedAnnealingPlacer` — the paper's non-ML baseline.

All three run one optimize loop, :class:`repro.core.optimizer.BasePlacer`:
it counts simulations, applies the step/budget/target stops and episode
restarts, and reports a :class:`PlacerResult` with the paper's
bookkeeping (best quality, simulations used, sims-to-target, convergence
history).  Each placer supplies only its agent turns.
"""

#: Export → defining module (PEP 562): exports load on first access, so
#: a Q-learning run does not load simulated annealing or
#: the policy-file codec.
_LAZY = {
    "SimulatedAnnealingPlacer": "repro.core.annealing",
    "FlatQPlacer": "repro.core.hierarchy",
    "MultiLevelPlacer": "repro.core.hierarchy",
    "BudgetTracker": "repro.core.optimizer",
    "Outcome": "repro.core.optimizer",
    "Placer": "repro.core.optimizer",
    "PlacerResult": "repro.core.optimizer",
    "Proposal": "repro.core.optimizer",
    "ProposingAgent": "repro.core.optimizer",
    "price_proposals": "repro.core.optimizer",
    "load_tables_snapshot": "repro.core.persistence",
    "save_tables_snapshot": "repro.core.persistence",
    "EpsilonSchedule": "repro.core.policy",
    "epsilon_greedy": "repro.core.policy",
    "epsilon_greedy_topk": "repro.core.policy",
    "MergeStats": "repro.core.qlearning",
    "QAgent": "repro.core.qlearning",
    "QTable": "repro.core.qlearning",
    "shaped_reward": "repro.core.rewards",
}

__all__ = [
    "BudgetTracker",
    "EpsilonSchedule",
    "FlatQPlacer",
    "MergeStats",
    "MultiLevelPlacer",
    "Outcome",
    "Placer",
    "PlacerResult",
    "Proposal",
    "ProposingAgent",
    "QAgent",
    "QTable",
    "SimulatedAnnealingPlacer",
    "epsilon_greedy",
    "epsilon_greedy_topk",
    "load_tables_snapshot",
    "price_proposals",
    "save_tables_snapshot",
    "shaped_reward",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
