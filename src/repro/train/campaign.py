"""Island-model shared-policy training over the parallel runtime.

The paper's central contrast is that Q-learning "improves over time by
gradually refining its policy" across episodes while SA restarts from
scratch.  The runtime of PR 1 parallelised *runs* but kept every worker
an island: its Q-tables were thrown away, so ``--jobs N`` bought N
seeds, not N learners.  This module closes the loop with the standard
distributed-RL fix — periodic policy synchronisation:

1. every **round**, N workers each run a fresh Q-learning placer
   (:class:`MultiLevelPlacer` or :class:`FlatQPlacer`) warm-started from
   a common master-policy snapshot, as ordinary :class:`RunSpec` jobs on
   any execution backend;
2. workers ship their learned per-agent Q-tables (plus their best
   placement) back as plain-data round results;
3. the driver folds the tables into the master policy with
   :meth:`QTable.merge` — in **spec order**, so the merged master is
   bit-identical on :class:`SerialBackend` and
   :class:`ProcessPoolBackend` — and the merged master seeds round
   ``r + 1``.

Worker seeds are ``seed + round * workers + index``: every worker
explores its own trajectory each round while the shared policy
compounds underneath.  Simulation accounting is honest about
parallelism — a round costs the *sum* of its workers' simulator calls,
and ``sims_to_target`` charges the full reaching round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable

from repro.core.qlearning import MERGE_HOWS, MergeStats, QTable
from repro.core.persistence import save_tables_snapshot
from repro.layout.placement import Placement
from repro.runtime.backend import ExecutionBackend, make_backend
from repro.runtime.spec import RunSpec, map_runs
from repro.service.registry import SpiceDeck, check_circuit

#: Placer kinds that can share policies (SA has no tables to merge).
TRAINABLE_PLACERS = ("ql", "flat")


@dataclass
class RoundReport:
    """What one synchronisation round did.

    Attributes:
        index: round number, 0-based.
        best_cost: best objective any worker reached this round.
        best_worker: spec key of the worker that reached it.
        sims: simulator evaluations all workers spent this round.
        sims_total: cumulative campaign evaluations after this round.
        merge: aggregated :class:`MergeStats` of folding every worker's
            tables into the master (``added`` shrinking and ``kept``
            growing across rounds is policy consensus forming).
        master_entries: master-policy size after the merge.
        reached_target: whether any worker met the target this round.
    """

    index: int
    best_cost: float
    best_worker: Hashable
    sims: int
    sims_total: int
    merge: MergeStats
    master_entries: int
    reached_target: bool


@dataclass
class CampaignResult:
    """Outcome of a full island-model training campaign.

    Attributes:
        circuit: library key (or deck name) of the trained circuit.
        placer: placer kind the workers ran.
        workers: islands per round.
        rounds_planned: requested rounds.
        rounds_run: rounds actually executed (early target stop).
        merge_how: :meth:`QTable.merge` conflict rule used.
        target: target cost the campaign chased (``None`` = none).
        initial_cost: objective of the common starting placement.
        best_cost: best objective any worker ever reached.
        best_placement: the placement that reached it.
        total_sims: simulator evaluations across all rounds and workers.
        sims_to_target: cumulative evaluations after the round in which
            the target was first met (``None`` = never) — the whole
            reaching round is charged, since its workers ran in parallel.
        history: per-round ``(sims_total, best_cost_so_far)`` samples,
            seeded with the starting point like every placer history.
        master_tables: the final merged policy, an ``export_tables()``-
            style snapshot ready for :func:`repro.core.persistence.
            save_tables_snapshot` or another campaign's warm start.
        rounds: per-round reports.
    """

    circuit: str
    placer: str
    workers: int
    rounds_planned: int
    rounds_run: int
    merge_how: str
    target: float | None
    initial_cost: float
    best_cost: float
    best_placement: Placement
    total_sims: int
    sims_to_target: int | None
    history: list[tuple[int, float]] = field(default_factory=list)
    master_tables: dict = field(default_factory=dict)
    rounds: list[RoundReport] = field(default_factory=list)

    @property
    def reached_target(self) -> bool:
        return self.sims_to_target is not None

    @property
    def improvement(self) -> float:
        """Fractional cost improvement over the starting placement."""
        if self.initial_cost == 0:
            return 0.0
        return (self.initial_cost - self.best_cost) / self.initial_cost

    @property
    def master_entries(self) -> int:
        return sum(t.n_entries for t in self.master_tables.values())


def merge_tables(
    master: dict, tables: dict, how: str
) -> MergeStats:
    """Fold one worker's tables snapshot into the master policy.

    Mutates ``master`` in place (new agent addresses appear as empty
    tables first, so ``how`` applies uniformly) and returns the
    aggregated per-entry statistics.
    """
    stats = MergeStats()
    for key, table in tables.items():
        stats += master.setdefault(key, QTable()).merge(table, how=how)
    return stats


def strip_visits(tables: dict) -> dict:
    """Copy a tables snapshot with every visit count zeroed.

    Workers warm-start from this, not from the raw master: visit counts
    are *evidence* (Bellman updates performed), and merges sum them.  A
    worker that inherited the master's counts would ship them straight
    back, double-counting the master's evidence ``workers`` times per
    round and drowning genuinely new updates under the ``"visits"``
    merge rule.  Stripping makes a returned worker table's counts mean
    exactly "updates this worker performed this round", so the round-end
    weighted average weighs master history against fresh learning.
    """
    out: dict = {}
    for key, table in tables.items():
        dup = QTable()
        for state, action, value in table.items():
            dup.set(state, action, value)
        out[key] = dup
    return out


class TrainingCampaign:
    """Driver for island-model shared-policy training on one circuit.

    Args:
        circuit: the circuit as data — a
            :data:`repro.service.registry.BUILDERS` key or a
            :class:`~repro.service.registry.SpiceDeck`, as a
            :class:`RunSpec` takes it.
        workers: islands per round (each one ``RunSpec`` job).
        rounds: synchronisation rounds.
        steps_per_round: optimizer step budget per worker per round.
        placer: ``"ql"`` (multi-level) or ``"flat"``.
        merge_how: :meth:`QTable.merge` conflict rule for folding worker
            tables into the master (``"max"`` — optimistic — is the
            island-model default; ``"theirs"`` makes later workers win).
        seed: base RNG seed; worker ``w`` of round ``r`` runs seed
            ``seed + r * workers + w``.
        batch: candidate placements per agent turn inside every worker.
        target: explicit target cost.
        target_from_symmetric: compute the target as the best
            symmetric-style cost (the paper's SOTA reference) when no
            explicit target is given.  The two reference evaluations are
            not charged to the campaign, mirroring fig3 accounting.
        target_scale: multiplier applied to the *symmetric-derived*
            target (explicit targets are taken literally).  Values below
            1.0 demand a placement strictly better than the symmetric
            reference — the harder races that expose multi-round policy
            compounding instead of round-1 saturation.
        stop_at_target: stop scheduling rounds (and let workers stop
            mid-round) once the target is met.
        warm_start: optional master-policy snapshot to start from (e.g.
            a previous campaign's ``master_tables`` or a checkpoint read
            back with :func:`repro.core.persistence.load_tables_snapshot`)
            — sims-to-target transfer across campaigns.
        checkpoint_dir: when set, the merged master policy is written
            there after every round (``round_000.json`` ...) via
            :func:`repro.core.persistence.save_tables_snapshot`.
        epsilon_decay_frac: exploration decay horizon inside each worker,
            as a fraction of ``steps_per_round``.
        ql_worse_tolerance: worker move-acceptance tolerance (``None`` =
            placer default).
        builder_kwargs: forwarded to a library key's builder.
        backend: execution backend, an int worker-process count, or a
            backend spec string (``make_backend`` semantics — e.g.
            ``"pool:4"`` or ``"cluster:host:port"``).  Defaults to
            serial — pass ``workers`` (or a backend) to actually fan
            the islands out; results are identical either way.
    """

    def __init__(
        self,
        circuit: str | SpiceDeck,
        *,
        workers: int = 4,
        rounds: int = 3,
        steps_per_round: int = 150,
        placer: str = "ql",
        merge_how: str = "max",
        seed: int = 0,
        batch: int = 1,
        target: float | None = None,
        target_from_symmetric: bool = True,
        target_scale: float = 1.0,
        stop_at_target: bool = True,
        warm_start: dict | None = None,
        checkpoint_dir: str | Path | None = None,
        epsilon_decay_frac: float = 0.6,
        ql_worse_tolerance: float | None = None,
        builder_kwargs: tuple[tuple[str, Any], ...] = (),
        backend: int | str | ExecutionBackend | None = None,
    ):
        check_circuit(circuit)
        if placer not in TRAINABLE_PLACERS:
            raise ValueError(
                f"placer must be one of {TRAINABLE_PLACERS} (SA has no "
                f"Q-tables to share), got {placer!r}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if steps_per_round < 1:
            raise ValueError(
                f"steps_per_round must be >= 1, got {steps_per_round}"
            )
        if merge_how not in MERGE_HOWS:
            raise ValueError(
                f"merge_how must be one of {MERGE_HOWS}, got {merge_how!r}"
            )
        if target_scale <= 0:
            raise ValueError(
                f"target_scale must be positive, got {target_scale}"
            )
        self.circuit = circuit
        self.workers = workers
        self.rounds = rounds
        self.steps_per_round = steps_per_round
        self.placer = placer
        self.merge_how = merge_how
        self.seed = seed
        self.batch = batch
        self.target = target
        self.target_from_symmetric = target_from_symmetric
        self.target_scale = target_scale
        self.stop_at_target = stop_at_target
        self.warm_start = warm_start
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.epsilon_decay_frac = epsilon_decay_frac
        self.ql_worse_tolerance = ql_worse_tolerance
        self.builder_kwargs = tuple(builder_kwargs)
        self.backend = make_backend(backend)

    # ------------------------------------------------------------- internals

    def _resolve_target(self) -> float | None:
        if self.target is not None or not self.target_from_symmetric:
            return self.target
        # Local import: evaluator machinery is only needed driver-side.
        from repro.eval.evaluator import PlacementEvaluator
        from repro.runtime.spec import build_block, symmetric_target

        probe = RunSpec(key="target", builder=self.circuit,
                        builder_kwargs=self.builder_kwargs)
        block = build_block(probe)
        return symmetric_target(block, PlacementEvaluator(block)) * self.target_scale

    def _round_specs(
        self, round_index: int, master: dict, target: float | None
    ) -> list[RunSpec]:
        specs = []
        for w in range(self.workers):
            specs.append(RunSpec(
                key=(round_index, w),
                builder=self.circuit,
                builder_kwargs=self.builder_kwargs,
                placer=self.placer,
                seed=self.seed + round_index * self.workers + w,
                max_steps=self.steps_per_round,
                target=target,
                batch=self.batch,
                epsilon_decay_frac=self.epsilon_decay_frac,
                ql_worse_tolerance=self.ql_worse_tolerance,
                evaluate_best=False,
                stop_at_target=self.stop_at_target,
                initial_tables=strip_visits(master) if master else None,
                warm_start_how="theirs",
                return_tables=True,
            ))
        return specs

    def _checkpoint(self, master: dict, report: RoundReport) -> None:
        if self.checkpoint_dir is None:
            return
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        width = max(3, len(str(self.rounds - 1)))
        save_tables_snapshot(
            master,
            self.checkpoint_dir / f"round_{report.index:0{width}d}.json",
            round=report.index,
            merge_how=self.merge_how,
            best_cost=report.best_cost,
            sims_total=report.sims_total,
        )

    # --------------------------------------------------------------- public

    def run(self) -> CampaignResult:
        """Execute the campaign and return the merged-policy result."""
        target = self._resolve_target()
        # Deep-copy the warm start: the campaign merges into its master
        # in place and must not mutate the caller's snapshot.
        master: dict = (
            {key: table.copy() for key, table in self.warm_start.items()}
            if self.warm_start else {}
        )

        name = (self.circuit if isinstance(self.circuit, str)
                else self.circuit.name)
        best_cost = math.inf
        best_placement: Placement | None = None
        initial_cost: float | None = None
        total_sims = 0
        sims_to_target: int | None = None
        history: list[tuple[int, float]] = []
        reports: list[RoundReport] = []

        for r in range(self.rounds):
            outcomes = map_runs(
                self._round_specs(r, master, target), self.backend)

            round_sims = 0
            round_best = math.inf
            round_best_key: Hashable = None
            round_reached = False
            merge_stats = MergeStats()
            for outcome in outcomes:  # spec order == deterministic merge
                result = outcome.result
                round_sims += result.sims_used
                round_reached = round_reached or result.reached_target
                if initial_cost is None:
                    initial_cost = result.initial_cost
                if result.best_cost < round_best:
                    round_best = result.best_cost
                    round_best_key = outcome.key
                merge_stats += merge_tables(
                    master, outcome.tables, self.merge_how)

            total_sims += round_sims
            if not history:
                # Seed with the starting point at one evaluation, the
                # same convention every placer history follows.
                history.append((1, initial_cost))
            if round_best < best_cost:
                best_cost = round_best
                chosen = next(o for o in outcomes if o.key == round_best_key)
                best_placement = chosen.result.best_placement
            history.append((total_sims, best_cost))
            if round_reached and sims_to_target is None:
                sims_to_target = total_sims

            report = RoundReport(
                index=r,
                best_cost=round_best,
                best_worker=round_best_key,
                sims=round_sims,
                sims_total=total_sims,
                merge=merge_stats,
                master_entries=sum(t.n_entries for t in master.values()),
                reached_target=round_reached,
            )
            reports.append(report)
            self._checkpoint(master, report)

            if self.stop_at_target and sims_to_target is not None:
                break

        return CampaignResult(
            circuit=str(name),
            placer=self.placer,
            workers=self.workers,
            rounds_planned=self.rounds,
            rounds_run=len(reports),
            merge_how=self.merge_how,
            target=target,
            initial_cost=initial_cost,
            best_cost=best_cost,
            best_placement=best_placement,
            total_sims=total_sims,
            sims_to_target=sims_to_target,
            history=history,
            master_tables=master,
            rounds=reports,
        )


def run_campaign(circuit: str | SpiceDeck, **kwargs: Any) -> CampaignResult:
    """Run an island-model training campaign (see :class:`TrainingCampaign`).

    Accepts ``jobs=`` as an alias for ``backend=`` so CLI-style integer
    fan-out reads naturally::

        result = run_campaign("ota2s", workers=4, rounds=3, jobs=4)
    """
    jobs = kwargs.pop("jobs", None)
    if jobs is not None:
        if "backend" in kwargs and kwargs["backend"] is not None:
            raise ValueError("pass either jobs= or backend=, not both")
        kwargs["backend"] = jobs
    return TrainingCampaign(circuit, **kwargs).run()
