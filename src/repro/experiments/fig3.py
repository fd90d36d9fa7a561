"""The headline experiment: regenerate the paper's Fig. 3 rows.

For one circuit the protocol is exactly the paper's Section III:

1. generate the SOTA-style symmetric layouts (Fig. 1b and 1c); the best
   one sets the **target** mismatch/offset and the FOM reference;
2. run multi-level multi-agent Q-learning and simulated annealing with
   the same budget and move set;
3. report, per algorithm: the headline metric (static mismatch for CM,
   offset for COMP/OTA), the FOM against the symmetric reference, and
   the simulation counts (to reach the target, and total).

Each stochastic algorithm runs over several seeds; the run with the
median best cost is reported so tables are stable without cherry-picking.
Per-seed runs are independent and fan out over the execution runtime
(:mod:`repro.runtime`) — serial by default, multi-process with
``jobs > 1`` — with results merged by seed so the table is identical at
any job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.evaluator import PlacementEvaluator
from repro.eval.fom import compute_fom
from repro.eval.metrics import Metrics
from repro.experiments.configs import ExperimentConfig
from repro.layout.generators import banded_placement
from repro.layout.placement import Placement
from repro.runtime import ExecutionBackend, RunSpec, map_runs, resolve_backend
from repro.service.registry import build_circuit


@dataclass
class AlgoRow:
    """One row of the Fig. 3 comparison.

    Attributes:
        algorithm: display name.
        primary: headline metric value (mismatch % or offset mV) of the
            median-quality run.
        fom: figure of merit vs the symmetric reference (reference = 1.0).
        sims_total: simulator evaluations spent in the median run.
        sims_to_target: evaluations needed to first beat the symmetric
            target in the median run (None = reference itself / never).
        metrics: the full metric set of the reported placement.
        placement: the reported placement.
        primary_runs: per-seed best primary values (claim statistics).
        tt_runs: per-seed sims-to-target values.
    """

    algorithm: str
    primary: float
    fom: float
    sims_total: int
    sims_to_target: int | None
    metrics: Metrics
    placement: Placement
    primary_runs: list[float] = field(default_factory=list)
    tt_runs: list[int | None] = field(default_factory=list)


@dataclass
class Fig3Result:
    """All rows for one circuit plus the experiment context."""

    circuit: str
    target: float
    reference: Metrics
    rows: list[AlgoRow] = field(default_factory=list)

    def row(self, algorithm: str) -> AlgoRow:
        for r in self.rows:
            if r.algorithm == algorithm:
                return r
        raise KeyError(f"no row for algorithm {algorithm!r}")

    def claims_hold(self) -> dict[str, bool]:
        """The paper's Fig. 3 claims, checked on this result.

        Comparisons against the symmetric baseline use the reported
        (median) run; the closer QL-vs-SA races are decided on per-seed
        medians so single lucky runs do not flip them.  See EXPERIMENTS.md
        for the claim list and measured outcomes.
        """
        ql = self.row("Q-learning")
        sa = self.row("SA")
        sym = self.row("Symmetric (SOTA)")

        def median(vals):
            ranked = sorted(vals)
            return ranked[len(ranked) // 2]

        def median_tt(row):
            vals = [float("inf") if t is None else t for t in row.tt_runs]
            return median(vals) if vals else float("inf")

        return {
            "ql_beats_symmetric_primary": ql.primary < sym.primary,
            "ql_beats_symmetric_fom": ql.fom > sym.fom,
            "sa_beats_symmetric_primary": sa.primary < sym.primary,
            "ql_not_worse_than_sa_primary": (
                median(ql.primary_runs) <= 1.25 * median(sa.primary_runs)
                or ql.primary <= sym.primary * 0.05
            ),
            "ql_fewer_sims_to_target": median_tt(ql) <= median_tt(sa),
        }


def _median_run(results):
    """The PlacerResult with the median best cost (ties → lower sims)."""
    ranked = sorted(results, key=lambda r: (r.best_cost, r.sims_used))
    return ranked[len(ranked) // 2]


def best_symmetric(
    block, evaluator: PlacementEvaluator
) -> tuple[str, Placement, Metrics]:
    """The better of the two symmetric styles by cost (paper's SOTA ref)."""
    candidates = []
    for style in ("ysym", "common_centroid"):
        placement = banded_placement(block, style)
        candidates.append((evaluator.cost(placement), style, placement))
    cost, style, placement = min(candidates, key=lambda c: c[0])
    return style, placement, evaluator.evaluate(placement)


#: Fig. 3 row name → runtime placer kind.
ALGORITHMS = (("SA", "sa"), ("Q-learning", "ql"))


def _algo_specs(config: ExperimentConfig, target: float) -> list[RunSpec]:
    """One lightweight spec per (algorithm, seed) — the full fan-out."""
    specs = []
    for name, placer in ALGORITHMS:
        for seed in config.seeds:
            specs.append(RunSpec(
                key=(name, seed),
                builder=config.builder,
                placer=placer,
                seed=seed,
                max_steps=config.max_steps,
                target=target,
                batch=config.batch,
                epsilon_decay_frac=config.epsilon_decay_frac,
                ql_worse_tolerance=(
                    config.ql_worse_tolerance if placer == "ql" else None
                ),
            ))
    return specs


def run_fig3(
    config: ExperimentConfig,
    backend: ExecutionBackend | None = None,
) -> Fig3Result:
    """Run the full three-way comparison for one circuit.

    Args:
        config: circuit, budgets and seeds (``config.jobs`` picks the
            default backend).
        backend: explicit execution backend; overrides ``config.jobs``.
    """
    block = build_circuit(config.builder)
    if backend is None:
        backend = resolve_backend(config.jobs)

    # Reference: best symmetric layout (also defines the target).
    ref_eval = PlacementEvaluator(block)
    style, sym_placement, sym_metrics = best_symmetric(block, ref_eval)
    target = ref_eval.cost(sym_placement)

    result = Fig3Result(circuit=config.name, target=target, reference=sym_metrics)
    result.rows.append(AlgoRow(
        algorithm="Symmetric (SOTA)",
        primary=sym_metrics.primary_value,
        fom=compute_fom(sym_metrics, sym_metrics),
        sims_total=1,
        sims_to_target=None,
        metrics=sym_metrics,
        placement=sym_placement,
    ))

    # Both algorithms' per-seed runs fan out in one batch; outcomes come
    # back in spec order, so each row merges by seed deterministically.
    outcomes = map_runs(_algo_specs(config, target), backend)
    by_key = {o.key: o for o in outcomes}
    for name, __ in ALGORITHMS:
        seed_outcomes = [by_key[(name, seed)] for seed in config.seeds]
        runs = [o.result for o in seed_outcomes]
        chosen = _median_run(runs)
        metrics = seed_outcomes[runs.index(chosen)].metrics
        result.rows.append(AlgoRow(
            algorithm=name,
            primary=metrics.primary_value,
            fom=compute_fom(metrics, sym_metrics),
            sims_total=chosen.sims_used,
            sims_to_target=chosen.sims_to_target,
            metrics=metrics,
            placement=chosen.best_placement,
            primary_runs=[o.metrics.primary_value for o in seed_outcomes],
            tt_runs=[r.sims_to_target for r in runs],
        ))
    return result
