"""Transfer experiment: cold vs warm vs island-merged training.

The paper's Q-learning-vs-SA argument is that a refining policy beats
memoryless restarts.  This experiment quantifies the same effect one
level up — across *runs* instead of across *episodes* — by racing three
regimes to the symmetric (SOTA) target on each circuit:

* **cold** — the PR 1 protocol: ``workers`` independent fixed-budget
  runs, no sharing, no early stop (exactly what the fig3 fan-out does).
  Its cost is the summed simulator calls of all runs; per-run
  sims-to-target statistics are kept for reference.
* **warm** — one sequential learner: a 1-worker campaign over the same
  number of rounds, each round warm-started from the previous round's
  policy (policy carry-over without any population).
* **island** — the shared-policy campaign of :mod:`repro.train`:
  ``workers`` islands per round, Q-tables merged into a master between
  rounds, early stop at the target.

The interesting outputs are the total simulations each regime spends to
reach the target: the island campaign stops the moment any worker gets
there, with every round's workers seeded by the merged policy of the
previous one, so it reaches the target in fewer total simulations than
the cold fan-out spends grinding out its fixed budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.runtime import ExecutionBackend, RunSpec, make_backend, map_runs
from repro.service.registry import default_registry
from repro.train import CampaignResult, run_campaign

#: Circuits the full experiment sweeps — every registered evaluation
#: block, in the shared registry's canonical order.
TRANSFER_CIRCUITS = default_registry().keys()


@dataclass
class RegimeStats:
    """One training regime's race-to-target outcome on one circuit.

    Attributes:
        name: ``"cold"``, ``"warm"`` or ``"island"``.
        total_sims: simulator evaluations the regime consumed in total.
        sims_to_target: cumulative evaluations when the target was first
            met, ``None`` if never.  For the cold regime this is the
            earliest point across its independent runs (cumulating in
            seed order); for campaigns it charges whole rounds.
        best_cost: best objective the regime reached.
        runs_reached: how many of the regime's runs/workers met the
            target at all.
        runs: number of independent runs (cold) or rounds (campaigns).
    """

    name: str
    total_sims: int
    sims_to_target: int | None
    best_cost: float
    runs_reached: int
    runs: int


@dataclass
class TransferRow:
    """Cold vs warm vs island on one circuit."""

    circuit: str
    target: float
    cold: RegimeStats
    warm: RegimeStats
    island: RegimeStats
    island_campaign: CampaignResult | None = field(repr=False, default=None)

    @property
    def island_beats_cold(self) -> bool:
        """The transfer claim: the island campaign reaches the target in
        fewer total simulations than the cold fan-out spends."""
        return (
            self.island.sims_to_target is not None
            and self.island.sims_to_target < self.cold.total_sims
        )


def _cold_regime(
    circuit: str,
    workers: int,
    budget: int,
    seed: int,
    batch: int,
    target: float,
    backend: ExecutionBackend,
) -> RegimeStats:
    specs = [
        RunSpec(
            key=("cold", w), builder=circuit, placer="ql",
            seed=seed + w, max_steps=budget, target=target,
            batch=batch, evaluate_best=False,
        )
        for w in range(workers)
    ]
    outcomes = map_runs(specs, backend)
    results = [o.result for o in outcomes]
    total = sum(r.sims_used for r in results)
    # Earliest target hit, charging runs in seed order: run w's hit costs
    # the full budgets of runs 0..w-1 plus its own sims-to-target.
    sims_to_target = None
    cumulative = 0
    for r in results:
        if r.sims_to_target is not None:
            sims_to_target = cumulative + r.sims_to_target
            break
        cumulative += r.sims_used
    return RegimeStats(
        name="cold",
        total_sims=total,
        sims_to_target=sims_to_target,
        best_cost=min(r.best_cost for r in results),
        runs_reached=sum(r.reached_target for r in results),
        runs=len(results),
    )


def _campaign_regime(name: str, campaign: CampaignResult) -> RegimeStats:
    return RegimeStats(
        name=name,
        total_sims=campaign.total_sims,
        sims_to_target=campaign.sims_to_target,
        best_cost=campaign.best_cost,
        runs_reached=sum(r.reached_target for r in campaign.rounds),
        runs=campaign.rounds_run,
    )


def run_transfer(
    circuits: Sequence[str] | None = None,
    workers: int = 4,
    rounds: int = 3,
    steps_per_round: int = 100,
    seed: int = 0,
    batch: int = 1,
    merge_how: str = "max",
    target_scale: float = 1.0,
    backend: int | ExecutionBackend | None = None,
) -> list[TransferRow]:
    """Race cold, warm and island training to the symmetric target.

    Args:
        circuits: builder names to sweep (default: all five blocks).
        workers: cold runs and island workers per round.
        rounds: synchronisation rounds for the campaign regimes; the
            cold runs get the same per-worker budget
            (``rounds * steps_per_round``) up front.
        steps_per_round: per-worker step budget per round.
        seed: base seed — cold runs use ``seed + w``, campaigns follow
            the campaign seeding rule from the same base.
        batch: candidate placements per agent turn, all regimes.
        merge_how: island merge rule.
        target_scale: multiplier on the symmetric target, for every
            regime.  Below 1.0 the race demands a placement strictly
            better than the symmetric reference — easy blocks stop
            saturating in round 1 and multi-round policy compounding
            becomes visible.
        backend: execution backend (or int jobs) every regime fans over.
    """
    backend = make_backend(backend)
    rows = []
    for circuit in circuits if circuits is not None else TRANSFER_CIRCUITS:
        island = run_campaign(
            circuit, workers=workers, rounds=rounds,
            steps_per_round=steps_per_round, seed=seed, batch=batch,
            merge_how=merge_how, target_from_symmetric=True,
            target_scale=target_scale,
            stop_at_target=True, backend=backend,
        )
        warm = run_campaign(
            circuit, workers=1, rounds=rounds,
            steps_per_round=steps_per_round, seed=seed, batch=batch,
            merge_how=merge_how, target=island.target,
            target_from_symmetric=False, stop_at_target=True,
            backend=backend,
        )
        cold = _cold_regime(
            circuit, workers, rounds * steps_per_round, seed, batch,
            island.target, backend,
        )
        rows.append(TransferRow(
            circuit=circuit,
            target=island.target,
            cold=cold,
            warm=_campaign_regime("warm", warm),
            island=_campaign_regime("island", island),
            island_campaign=island,
        ))
    return rows
