"""Simulated-annealing baseline (the paper's non-ML comparison).

Classic Metropolis SA over the *same* move set the RL agents use (unit
moves and rigid group moves), with geometric cooling.  SA "focuses on
exploring solutions near the current best" and carries no memory between
moves — the contrast the paper draws against Q-learning's accumulated
policy.

SA turns run through the same propose/observe candidate protocol as the
Q-learning placers (:mod:`repro.core.optimizer`): with ``batch = k`` each
turn draws ``k`` random legal moves from the current placement, prices
them in one batched objective call, and Metropolis-tests them *in
proposal order*, committing the first acceptance.  ``k = 1`` is exactly
classic SA — same RNG stream, same acceptance sequence.

The run itself is the shared loop of
:class:`~repro.core.optimizer.BasePlacer`; SA adds only its single turn,
the geometric cooling step after every turn, and its acceptance
diagnostics.  It never restarts.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core.optimizer import BasePlacer, Outcome, Proposal
from repro.layout.env import PlacementEnv


class _SaTurn:
    """One annealing turn as a :class:`ProposingAgent`.

    ``propose`` draws up to ``k`` random legal moves from the current
    placement (the first draw is exactly the classic single proposal),
    snapshots the speculative ones and applies the first on the live
    placement; ``observe`` Metropolis-tests the priced candidates in
    order and commits the first acceptance, undoing the first draw
    unless that is the one accepted.
    """

    def __init__(self, placer: "SimulatedAnnealingPlacer"):
        self.placer = placer

    def _apply(self, action) -> None:
        kind, group, local, direction = action
        if kind == "group":
            self.placer.env.move_group(group, direction)
        else:
            self.placer.env.move_unit(group, local, direction)

    def _undo(self, action) -> None:
        kind, group, local, direction = action
        if kind == "group":
            self.placer.env.undo_group(group, direction)
        else:
            self.placer.env.undo_unit(group, local, direction)

    def propose(self, k: int) -> list[Proposal]:
        placer = self.placer
        actions = []
        for __ in range(k):
            action = placer._propose()
            if action is None:
                break
            actions.append(action)
        if not actions:
            return []
        speculative = []
        for action in actions[1:]:
            self._apply(action)
            speculative.append(Proposal(
                action=action, placement=placer.env.placement.copy(),
            ))
            self._undo(action)
        self._apply(actions[0])
        return [Proposal(action=actions[0], placement=placer.env.placement),
                *speculative]

    def observe(self, outcomes: Sequence[Outcome]) -> float:
        placer = self.placer
        cost = placer.turn_cost
        placer.proposed += len(outcomes)
        first = outcomes[0].proposal.action
        for i, outcome in enumerate(outcomes):
            delta = outcome.cost - cost
            accept = (
                delta <= 0
                or placer.rng.random()
                < math.exp(-delta / placer.temperature)
            )
            if accept:
                placer.accepted += 1
                if i:
                    self._undo(first)
                    self._apply(outcome.proposal.action)
                return outcome.cost
        self._undo(first)
        return cost


#: Initial and final temperature as fractions of the initial cost
#: (temperature lives in cost units).
T_START_FRAC = 0.3
T_END_FRAC = 1e-3
#: Probability a proposal is a rigid group move rather than a unit move.
P_GROUP_MOVE = 0.25


class SimulatedAnnealingPlacer(BasePlacer):
    """Metropolis SA on a placement environment.

    Args:
        env: placement environment.
        batch: candidate moves priced per turn (1 = classic SA; larger
            batches Metropolis-test the candidates in order and commit
            the first acceptance).
        seed: RNG seed.
        sim_counter: callable returning cumulative simulator evaluations.
    """

    def __init__(
        self,
        env: PlacementEnv,
        batch: int = 1,
        seed: int = 0,
        sim_counter: Callable[[], int] | None = None,
    ):
        super().__init__(env, batch, sim_counter)
        self.rng = np.random.default_rng(seed)
        self.accepted = 0
        self.proposed = 0
        self.temperature = 0.0
        self._decay = 1.0

    def _propose(self) -> tuple[str, str, int, int] | None:
        """Pick a random legal move: ("group"/"unit", group, local, dir)."""
        groups = self.env.group_names
        for __ in range(20):  # retry if the sampled group has no legal move
            group = groups[int(self.rng.integers(len(groups)))]
            if self.rng.random() < P_GROUP_MOVE:
                legal = self.env.legal_group_actions(group)
                if legal:
                    d = legal[int(self.rng.integers(len(legal)))]
                    return ("group", group, -1, d)
            else:
                legal = self.env.legal_unit_actions(group)
                if legal:
                    local, d = legal[int(self.rng.integers(len(legal)))]
                    return ("unit", group, local, d)
        return None

    def _turns(self) -> list[_SaTurn]:
        return [_SaTurn(self)]

    def _begin(self, initial: float, max_steps: int) -> None:
        """Temperature decays geometrically from ``T_START_FRAC * C0`` to
        ``T_END_FRAC * C0`` across the step budget."""
        t_start = T_START_FRAC * max(initial, 1e-12)
        t_end = T_END_FRAC * max(initial, 1e-12)
        self._decay = (t_end / t_start) ** (1.0 / max_steps)
        self.temperature = t_start

    def _after_turn(self) -> None:
        self.temperature *= self._decay

    def _diagnostics(self) -> dict:
        return {
            "accepted": self.accepted,
            "proposed": self.proposed,
            "acceptance_rate": self.accepted / max(1, self.proposed),
        }
