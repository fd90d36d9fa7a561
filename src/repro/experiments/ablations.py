"""Ablation experiments backing the paper's design claims.

* **Hierarchy** (Section II-A): multi-level multi-agent vs flat single-table
  Q-learning — table growth and quality at equal budget.
* **Convergence** (Section III): Q-learning vs SA best-cost trajectories —
  "learning and improving over time" vs memoryless neighbourhood search.
* **Linearity** (Section I): under a *purely linear* variation field,
  symmetric layout is already near-optimal and objective-driven search
  buys little; under the non-linear field it buys a lot.  This is the
  premise of the whole paper.

Each ablation's independent runs (the two Q-learning formulations, the
QL-vs-SA pair, the two field regimes) fan out over the execution runtime
(:mod:`repro.runtime`); results merge by run key, so any backend yields
identical ablation tables.  Each driver takes its circuit as data — a
library key or a :class:`~repro.service.registry.SpiceDeck` — which the
specs carry to the workers as is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.evaluator import PlacementEvaluator
from repro.layout.dummies import dummy_area_overhead, with_dummy_halo
from repro.layout.generators import banded_placement
from repro.runtime import (
    ExecutionBackend,
    RunSpec,
    map_runs,
    outcomes_by_key,
    symmetric_target,
)
from repro.service.registry import SpiceDeck, build_circuit


@dataclass
class HierarchyAblation:
    """Multi-level vs flat Q-learning at the same budget."""

    circuit: str
    multi_best: float
    flat_best: float
    multi_table_entries: int
    flat_table_entries: int
    multi_states: int
    flat_states: int
    multi_sims_to_target: int | None
    flat_sims_to_target: int | None


def run_hierarchy_ablation(
    circuit: str | SpiceDeck,
    max_steps: int = 400,
    seed: int = 1,
    backend: ExecutionBackend | None = None,
    batch: int = 1,
) -> HierarchyAblation:
    """Compare the two Q-learning formulations on one circuit."""
    block = build_circuit(circuit)
    target = symmetric_target(block, PlacementEvaluator(block))

    specs = [
        RunSpec(key="multi", builder=circuit, placer="ql", seed=seed,
                max_steps=max_steps, target=target, batch=batch,
                evaluate_best=False),
        RunSpec(key="flat", builder=circuit, placer="flat", seed=seed,
                max_steps=max_steps, target=target, batch=batch,
                evaluate_best=False),
    ]
    outcomes = outcomes_by_key(map_runs(specs, backend))
    rm = outcomes["multi"].result
    rf = outcomes["flat"].result

    return HierarchyAblation(
        circuit=block.name,
        multi_best=rm.best_cost,
        flat_best=rf.best_cost,
        multi_table_entries=rm.diagnostics["total_entries"],
        flat_table_entries=rf.diagnostics["entries"],
        multi_states=rm.diagnostics["top_states"],
        flat_states=rf.diagnostics["states"],
        multi_sims_to_target=rm.sims_to_target,
        flat_sims_to_target=rf.sims_to_target,
    )


@dataclass
class ConvergenceAblation:
    """Best-cost-vs-simulations traces for Q-learning and SA."""

    circuit: str
    ql_history: list[tuple[int, float]]
    sa_history: list[tuple[int, float]]
    ql_best: float
    sa_best: float

    def ql_cost_at(self, sims: int) -> float:
        return _cost_at(self.ql_history, sims)

    def sa_cost_at(self, sims: int) -> float:
        return _cost_at(self.sa_history, sims)

    def ql_sims_to(self, fraction: float) -> int | None:
        """Simulations QL needed to reach ``fraction`` of the initial cost."""
        return _sims_to(self.ql_history, fraction)

    def sa_sims_to(self, fraction: float) -> int | None:
        """Simulations SA needed to reach ``fraction`` of the initial cost."""
        return _sims_to(self.sa_history, fraction)


def _sims_to(history: list[tuple[int, float]], fraction: float) -> int | None:
    threshold = fraction * history[0][1]
    for sims, cost in history:
        if cost <= threshold:
            return sims
    return None


def _cost_at(history: list[tuple[int, float]], sims: int) -> float:
    """Best cost achieved by the time ``sims`` evaluations were spent."""
    best = history[0][1]
    for s, c in history:
        if s > sims:
            break
        best = c
    return best


def run_convergence_ablation(
    circuit: str | SpiceDeck,
    max_steps: int = 600,
    seed: int = 1,
    backend: ExecutionBackend | None = None,
    batch: int = 1,
) -> ConvergenceAblation:
    """Produce the QL-vs-SA convergence traces for one circuit."""
    block = build_circuit(circuit)
    specs = [
        RunSpec(key="ql", builder=circuit, placer="ql", seed=seed,
                max_steps=max_steps, batch=batch, evaluate_best=False),
        RunSpec(key="sa", builder=circuit, placer="sa", seed=seed,
                max_steps=max_steps, batch=batch, evaluate_best=False),
    ]
    outcomes = outcomes_by_key(map_runs(specs, backend))
    rq = outcomes["ql"].result
    rs = outcomes["sa"].result

    return ConvergenceAblation(
        circuit=block.name,
        ql_history=rq.history,
        sa_history=rs.history,
        ql_best=rq.best_cost,
        sa_best=rs.best_cost,
    )


@dataclass
class DummyAblation:
    """The traditional dummy-insertion recipe vs objective-driven placement.

    The paper's introduction: dummies "can double circuit area and
    introduce additional parasitics.  Moreover, even with dummies included
    in a perfectly symmetric layout, non-linear variations may not
    cancel."  This ablation measures all three parts of that sentence.

    Attributes:
        circuit: block name.
        rows: layout recipe → {"primary": headline metric,
            "area_um2": bounding-box area, "area_overhead": relative bbox
            growth vs the bare layout (0 where not applicable)}.
    """

    circuit: str
    rows: dict[str, dict[str, float]] = field(default_factory=dict)


def run_dummy_ablation(
    circuit: str | SpiceDeck,
    max_steps: int = 400,
    seed: int = 1,
    backend: ExecutionBackend | None = None,
    batch: int = 1,
) -> DummyAblation:
    """Measure bare-symmetric vs symmetric+dummies vs Q-learning."""
    block = build_circuit(circuit)
    evaluator = PlacementEvaluator(block)
    out = DummyAblation(circuit=block.name)

    candidates = {
        style: banded_placement(block, style)
        for style in ("ysym", "common_centroid")
    }
    best_style = min(candidates, key=lambda s: evaluator.cost(candidates[s]))
    bare = candidates[best_style]
    bare_metrics = evaluator.evaluate(bare)
    out.rows["symmetric"] = {
        "primary": bare_metrics.primary_value,
        "area_um2": bare_metrics["area_um2"],
        "area_overhead": 0.0,
    }

    dummied = with_dummy_halo(bare)
    dummy_metrics = evaluator.evaluate(dummied)
    out.rows["symmetric+dummies"] = {
        "primary": dummy_metrics.primary_value,
        "area_um2": dummy_metrics["area_um2"],
        "area_overhead": dummy_area_overhead(dummied),
    }

    spec = RunSpec(key="ql", builder=circuit, placer="ql", seed=seed,
                   max_steps=max_steps, target=evaluator.cost(bare),
                   batch=batch)
    ql_metrics = map_runs([spec], backend)[0].metrics
    out.rows["q-learning"] = {
        "primary": ql_metrics.primary_value,
        "area_um2": ql_metrics["area_um2"],
        "area_overhead": 0.0,
    }
    return out


@dataclass
class LinearityAblation:
    """Symmetric vs objective-driven placement under each field regime.

    Attributes:
        regimes: field kind → {"symmetric": best symmetric cost,
            "optimized": Q-learning best cost, "gain": symmetric/optimized}.
    """

    circuit: str
    regimes: dict[str, dict[str, float]] = field(default_factory=dict)

    def gain(self, kind: str) -> float:
        return self.regimes[kind]["gain"]


def run_linearity_ablation(
    circuit: str | SpiceDeck,
    max_steps: int = 400,
    seed: int = 1,
    backend: ExecutionBackend | None = None,
    batch: int = 1,
) -> LinearityAblation:
    """Run the linear-vs-nonlinear field comparison on one circuit.

    Under ``linear`` the LDE neighbourhood models are disabled too, so the
    field is *exactly* the textbook case symmetric layout was designed
    for; common-centroid then cancels it to numerical noise and
    objective-driven search cannot improve much.  Under ``nonlinear``
    (field + LDEs) the symmetric cancellation breaks and unconventional
    placement wins big — the paper's premise.

    Each regime's worker builds its own variation field and computes the
    symmetric reference with the run's evaluator (sharing its cache),
    exactly as the historical in-process loop did.
    """
    out = LinearityAblation(circuit=build_circuit(circuit).name)
    specs = [
        RunSpec(key=kind, builder=circuit, placer="ql", seed=seed,
                max_steps=max_steps, target_from_symmetric=True,
                share_target_evaluator=True, variation_kind=kind,
                variation_with_lde=(kind == "nonlinear"),
                batch=batch, evaluate_best=False)
        for kind in ("linear", "nonlinear")
    ]
    for outcome in map_runs(specs, backend):
        sym = outcome.target
        optimized = min(sym, outcome.result.best_cost)
        out.regimes[outcome.key] = {
            "symmetric": sym,
            "optimized": optimized,
            "gain": sym / max(optimized, 1e-12),
        }
    return out
