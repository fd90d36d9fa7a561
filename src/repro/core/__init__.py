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

from repro.core.annealing import SimulatedAnnealingPlacer
from repro.core.hierarchy import FlatQPlacer, MultiLevelPlacer
from repro.core.optimizer import (
    BudgetTracker,
    Outcome,
    Placer,
    PlacerResult,
    Proposal,
    ProposingAgent,
    price_proposals,
)
from repro.core.persistence import (
    load_tables_snapshot,
    save_tables_snapshot,
)
from repro.core.policy import EpsilonSchedule, epsilon_greedy, epsilon_greedy_topk
from repro.core.qlearning import MergeStats, QAgent, QTable
from repro.core.rewards import RewardConfig, shaped_reward

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
    "RewardConfig",
    "SimulatedAnnealingPlacer",
    "epsilon_greedy",
    "epsilon_greedy_topk",
    "load_tables_snapshot",
    "price_proposals",
    "save_tables_snapshot",
    "shaped_reward",
]
