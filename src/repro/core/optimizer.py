"""Shared optimizer interfaces and result types.

Besides the classic :class:`Placer` protocol (``optimize() ->
PlacerResult``) this module defines the **batched candidate protocol**
every agent in the repo is built around:

* :meth:`ProposingAgent.propose` returns up to ``k`` candidate moves as
  :class:`Proposal` objects — the primary candidate first (the move the
  agent would have made unbatched), applied once on the live placement
  and priced there, then the speculative runners-up, each a snapshot
  copy (applied and undone on the live placement);
* the driver prices all candidate placements in **one batched objective
  call** (:func:`price_proposals`);
* :meth:`ProposingAgent.observe` receives every :class:`Outcome`, learns
  from all of them, keeps the primary move or undoes it (committing a
  runner-up instead where the acceptance rule picks one), and returns
  the new current cost.

With ``k = 1`` the round has no snapshot at all: it is exactly the
classic select → apply → price → learn → keep/undo step, so batching is
purely a throughput knob: trajectories are unchanged.

:class:`BasePlacer` is the one optimize loop every placer runs: it counts
objective calls, prices round-robin agent turns through
:func:`price_proposals`, applies the step, simulation-budget and target
stops, restarts episodes and reports the :class:`PlacerResult`.  A placer
supplies only its agent turns and its hooks (restart rule, per-turn
cooling, diagnostics).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.layout.env import PlacementEnv
from repro.layout.placement import Placement


@dataclass
class PlacerResult:
    """Outcome of one optimization run.

    Attributes:
        best_placement: the best placement seen (a copy, safe to keep).
        best_cost: its objective value.
        initial_cost: objective of the starting placement.
        sims_used: simulator evaluations consumed (cache misses).
        steps: agent/optimizer steps taken.
        reached_target: whether the target cost was met.
        sims_to_target: simulation count when the target was first met
            (None if never).
        history: (sims_used, best_cost_so_far) samples for convergence
            plots — the paper's Q-learning-vs-SA trajectory comparison.
        diagnostics: optimizer-specific extras (Q-table sizes, acceptance
            rates, ...).
    """

    best_placement: Placement
    best_cost: float
    initial_cost: float
    sims_used: int
    steps: int
    reached_target: bool
    sims_to_target: int | None
    history: list[tuple[int, float]] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        """Fractional cost improvement over the starting placement."""
        if self.initial_cost == 0:
            return 0.0
        return (self.initial_cost - self.best_cost) / self.initial_cost


@dataclass
class Proposal:
    """One candidate move an agent wants priced.

    Attributes:
        action: agent-specific action encoding (opaque to the driver).
        placement: the placement after the move — the live one for the
            primary proposal (the move is applied until ``observe``
            keeps or undoes it), a snapshot copy for a runner-up.
        next_state: agent-state the move reaches (``None`` for agents
            without state, e.g. simulated annealing).
    """

    action: Any
    placement: Placement
    next_state: Any = None


@dataclass
class Outcome:
    """A priced proposal: the candidate move plus its objective value."""

    proposal: Proposal
    cost: float


@runtime_checkable
class ProposingAgent(Protocol):
    """An agent turn that can propose candidate batches and learn from them.

    Implementations guarantee that a ``propose(1)`` / ``observe`` round
    is *exactly* the unbatched step — same RNG draws, same Q-table
    updates, same accept/revert rule — so ``k`` scales evaluation
    throughput without changing trajectories.
    """

    def propose(self, k: int) -> list[Proposal]:
        """Up to ``k`` candidate moves from the current state.

        The first proposal is the primary candidate (the move the
        unbatched agent would make), left applied on the live placement;
        the rest are speculative snapshots.  An empty list means no legal
        move exists (and the placement is untouched).
        """
        ...

    def observe(self, outcomes: Sequence[Outcome]) -> float:
        """Learn from every outcome, commit at most one of the moves.

        Which candidate (if any) is committed is the agent's acceptance
        rule: the Q-learning placers keep the applied primary under their
        tolerance rule or undo it; simulated annealing Metropolis-tests
        the outcomes in proposal order and commits the first acceptance
        (undoing the primary first when a runner-up wins).  Returns the
        cost the environment is left at (the committed outcome's cost,
        or the pre-turn cost when everything was rejected).
        """
        ...


def price_proposals(
    agent: ProposingAgent,
    k: int,
    cost_many: Callable[[list[Placement]], list[float]],
) -> float | None:
    """One propose → batch-price → observe round.

    Returns the post-turn cost, or ``None`` when the agent had no legal
    move (the environment is untouched in that case).  Between the two
    calls the primary move stands applied on the live placement, which
    is the first placement priced.
    """
    proposals = agent.propose(k)
    if not proposals:
        return None
    costs = cost_many([p.placement for p in proposals])
    return agent.observe(
        [Outcome(proposal=p, cost=c) for p, c in zip(proposals, costs)]
    )


@runtime_checkable
class Placer(Protocol):
    """Anything that can optimize a placement environment."""

    def optimize(
        self,
        max_steps: int,
        target: float | None = None,
        sim_budget: int | None = None,
        stop_at_target: bool = False,
    ) -> PlacerResult:
        """Run the optimization and return the result."""
        ...


@dataclass
class BudgetTracker:
    """Tracks progress against a target and budgets during a run."""

    target: float | None
    sim_budget: int | None
    best_cost: float
    best_placement: Placement
    history: list[tuple[int, float]] = field(default_factory=list)
    sims_to_target: int | None = None

    def update(self, cost: float, placement: Placement, sims_used: int) -> None:
        """Record a new evaluation; keeps the best-so-far snapshot.

        The very first sample is always recorded even though it cannot
        beat the seeded ``best_cost`` — without it a run that never
        improves would report an *empty* convergence trajectory and the
        fig3-style plots would silently drop the starting point.
        """
        improved = cost < self.best_cost
        if improved:
            self.best_cost = cost
            self.best_placement = placement.copy()
        if improved or not self.history:
            self.history.append((sims_used, self.best_cost))
        if (
            self.sims_to_target is None
            and self.target is not None
            and cost <= self.target
        ):
            self.sims_to_target = sims_used

    def out_of_budget(self, sims_used: int) -> bool:
        return self.sim_budget is not None and sims_used >= self.sim_budget

    @property
    def reached_target(self) -> bool:
        return self.sims_to_target is not None


class BasePlacer:
    """The optimize loop all placers share.

    Agents take turns in round-robin order; each turn is one
    :func:`price_proposals` round.  A turn with no legal move passes to
    the next agent, and a placer whose only agent has no move stops.  The
    step, simulation-budget and target stops are checked after every
    turn, before the episode restart: every ``episode_length`` turns the
    environment goes back to :meth:`_restart`'s placement and is
    re-priced (``None`` never restarts).

    Args:
        env: placement environment (owns the objective hook).
        batch: candidate moves priced per agent turn.
        sim_counter: callable returning cumulative simulator evaluations
            (pass ``lambda: evaluator.sim_count``); defaults to counting
            objective calls.
    """

    episode_length: int | None = None

    def __init__(
        self,
        env: PlacementEnv,
        batch: int = 1,
        sim_counter: Callable[[], int] | None = None,
    ):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.env = env
        self.batch = batch
        self._objective_calls = 0
        self._sim_counter = sim_counter if sim_counter is not None else (
            lambda: self._objective_calls
        )
        self._step = 0
        self._max_steps = 1
        self.turn_cost = 0.0
        self.turn_initial = 0.0
        self.turn_target: float | None = None

    def _cost(self) -> float:
        self._objective_calls += 1
        return self.env.cost()

    def _cost_many(self, placements: list[Placement]) -> list[float]:
        self._objective_calls += len(placements)
        return self.env.cost_many(placements)

    # ------------------------------------------------------------- hooks

    def _turns(self) -> list[ProposingAgent]:
        """The agents' turns, in round-robin order."""
        raise NotImplementedError

    def _begin(self, initial: float, max_steps: int) -> None:
        """Run-start hook, after the initial placement is priced."""

    def _after_turn(self) -> None:
        """Hook run after every counted turn."""

    def _restart(self, best: Placement) -> None:
        """Move the environment to the next episode's start."""
        self.env.reset()

    def _diagnostics(self) -> dict:
        return {}

    # -------------------------------------------------------------- loop

    def optimize(
        self,
        max_steps: int,
        target: float | None = None,
        sim_budget: int | None = None,
        stop_at_target: bool = False,
    ) -> PlacerResult:
        """Run agent turns until a stop fires.

        Args:
            max_steps: total agent turns across all agents and episodes
                (each turn prices up to ``batch`` candidates).
            target: target cost (sims-to-target is recorded; with
                ``stop_at_target`` the run ends there).
            sim_budget: stop once this many simulator calls were spent.
            stop_at_target: stop as soon as the target is met.
        """
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self._max_steps = max_steps
        self._step = 0
        self.env.reset()
        initial = self._cost()
        tracker = BudgetTracker(
            target=target, sim_budget=sim_budget,
            best_cost=initial, best_placement=self.env.placement.copy(),
        )
        tracker.update(initial, self.env.placement, self._sim_counter())
        self.turn_initial = initial
        self.turn_target = target
        self._begin(initial, max_steps)

        turns = self._turns()
        cost = initial
        episode_steps = 0
        for turn in itertools.cycle(turns):
            self.turn_cost = cost
            new_cost = price_proposals(turn, self.batch, self._cost_many)
            if new_cost is not None:
                cost = new_cost
            elif len(turns) == 1:
                break
            self._step += 1
            episode_steps += 1
            self._after_turn()
            tracker.update(cost, self.env.placement, self._sim_counter())
            if (
                self._step >= max_steps
                or tracker.out_of_budget(self._sim_counter())
                or (stop_at_target and tracker.reached_target)
            ):
                break
            if (
                self.episode_length is not None
                and episode_steps >= self.episode_length
            ):
                self._restart(tracker.best_placement)
                cost = self._cost()
                episode_steps = 0

        return PlacerResult(
            best_placement=tracker.best_placement,
            best_cost=tracker.best_cost,
            initial_cost=initial,
            sims_used=self._sim_counter(),
            steps=self._step,
            reached_target=tracker.reached_target,
            sims_to_target=tracker.sims_to_target,
            history=tracker.history,
            diagnostics=self._diagnostics(),
        )
