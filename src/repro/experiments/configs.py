"""Experiment configurations for the paper's evaluation.

One config per circuit, sized so the full benchmark suite regenerates in
minutes on a laptop while preserving the comparisons' shape.  ``scaled``
produces longer-budget variants for higher-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.service.registry import SpiceDeck, check_circuit


@dataclass(frozen=True)
class ExperimentConfig:
    """Budget and protocol for one circuit's comparison.

    Attributes:
        name: circuit name as used in reports ("CM", "COMP", "OTA").
        builder: the circuit, as data — a
            :data:`~repro.service.registry.BUILDERS` key or a
            :class:`~repro.service.registry.SpiceDeck`.
        max_steps: optimizer step budget per run.
        seeds: RNG seeds; the run with the *median* best cost is reported
            (the paper reports single runs; medians keep our tables stable).
        epsilon_decay_frac: fraction of the step budget over which
            exploration decays.
        ql_worse_tolerance: initial move-acceptance tolerance for the
            Q-learning placer (fraction of current cost, annealed to 0).
        jobs: worker processes for the per-seed fan-out (1 = serial;
            see :mod:`repro.runtime`).  Results are identical at any
            job count — only wall-clock changes.
        batch: candidate placements each agent turn prices in one batched
            evaluation (1 = the classic per-move loop; see the placers'
            ``batch`` argument).  Composes with ``jobs``: every worker
            process runs its placer at this batch size.
    """

    name: str
    builder: str | SpiceDeck
    max_steps: int
    seeds: tuple[int, ...]
    epsilon_decay_frac: float = 0.6
    ql_worse_tolerance: float = 0.5
    jobs: int = 1
    batch: int = 1

    def __post_init__(self) -> None:
        check_circuit(self.builder)
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not 0.0 < self.epsilon_decay_frac <= 1.0:
            raise ValueError("epsilon_decay_frac must be in (0, 1]")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    def scaled(self, factor: float) -> "ExperimentConfig":
        """A variant with the step budget scaled by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(self, max_steps=max(1, int(self.max_steps * factor)))

    def with_jobs(self, jobs: int) -> "ExperimentConfig":
        """A variant fanning its independent runs over ``jobs`` workers."""
        return replace(self, jobs=jobs)

    def with_batch(self, batch: int) -> "ExperimentConfig":
        """A variant pricing ``batch`` candidates per agent turn."""
        return replace(self, batch=batch)


CM_CONFIG = ExperimentConfig(
    name="CM", builder="cm", max_steps=500,
    seeds=(1, 2, 3, 4, 5), ql_worse_tolerance=0.2,
)
COMP_CONFIG = ExperimentConfig(
    name="COMP", builder="comp", max_steps=500,
    seeds=(1, 2, 3, 4, 5),
)
OTA_CONFIG = ExperimentConfig(
    name="OTA", builder="ota", max_steps=400,
    seeds=(1, 2, 3),
)

ALL_CONFIGS = {"cm": CM_CONFIG, "comp": COMP_CONFIG, "ota": OTA_CONFIG}
