"""Scaling study: how the approach behaves as circuits grow.

The paper claims "our multi-level, multi-agent RL approach is scalable".
This experiment grows the current mirror's unit count and records what
actually scales: the simulations needed to reach the symmetric-quality
target, and the Q-table footprint (the quantity the hierarchy was built
to contain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime import ExecutionBackend, RunSpec, build_block, map_runs


@dataclass
class ScalingResult:
    """Per-size measurements of the scaling sweep.

    Attributes:
        rows: total unit count → {"sims_to_target", "top_states",
            "total_entries", "best", "target"}.
    """

    rows: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def sizes(self) -> list[int]:
        return sorted(self.rows)


def run_scaling(
    units_per_device: tuple[int, ...] = (2, 4, 6),
    max_steps: int = 350,
    seed: int = 1,
    backend: ExecutionBackend | None = None,
    batch: int = 1,
) -> ScalingResult:
    """Sweep the CM size and optimize each instance with the QL placer.

    Each size is an independent run and fans out over the runtime; the
    worker derives the symmetric target with the run's own evaluator
    (sharing its cache and simulation counter, as the historical loop
    did, so reported sim counts are unchanged).
    """
    out = ScalingResult()
    specs = [
        RunSpec(key=upd, builder="cm",
                builder_kwargs=(("units_per_device", upd),),
                placer="ql", seed=seed, max_steps=max_steps,
                target_from_symmetric=True, share_target_evaluator=True,
                ql_worse_tolerance=0.2, batch=batch, evaluate_best=False)
        for upd in units_per_device
    ]
    for spec, outcome in zip(specs, map_runs(specs, backend)):
        result = outcome.result
        size = build_block(spec).circuit.total_units()
        out.rows[size] = {
            "sims_to_target": (float("inf") if result.sims_to_target is None
                               else result.sims_to_target),
            "top_states": result.diagnostics["top_states"],
            "total_entries": result.diagnostics["total_entries"],
            "best": result.best_cost,
            "target": outcome.target,
        }
    return out


def format_scaling(result: ScalingResult) -> str:
    """Text table of the scaling sweep."""
    headers = ["#units", "target", "best", "#sims to target", "Q entries", "top states"]
    rows = []
    for size in result.sizes:
        vals = result.rows[size]
        tt = vals["sims_to_target"]
        rows.append([
            str(size),
            f"{vals['target']:.3f}",
            f"{vals['best']:.3f}",
            "-" if tt == float("inf") else str(int(tt)),
            str(int(vals["total_entries"])),
            str(int(vals["top_states"])),
        ])
    from repro.experiments.reporting import format_table
    return "[CM] scaling sweep\n" + format_table(headers, rows)
