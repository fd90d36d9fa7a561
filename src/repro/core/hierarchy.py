"""Multi-level, multi-agent Q-learning placement — the paper's Section II-A.

Two levels of tabular agents share one placement environment:

* the **top-level agent** owns a Q-table over *group* moves: its state is
  the tuple of group centroids, its actions rigid group translations;
* one **bottom-level agent per group** owns a Q-table over *unit* moves
  within that group: its state is the group's translation-invariant
  internal arrangement, its actions (unit, direction) pairs.

Agents act in an **interleaved round-robin** — top, then each bottom agent
in turn — so every agent sees the placement the previous one left behind
and moves are conflict-free by construction (the paper's "Q-table updates
are performed in an interleaved manner, ensuring conflict-free movement
between agents").

Every turn runs through the batched candidate protocol of
:mod:`repro.core.optimizer`: the agent *proposes* its ε-greedy move,
applied once on the live placement and priced there, plus up to
``batch - 1`` greedy runners-up as placement snapshots; the whole
candidate set is priced in **one batched objective call**
(:meth:`repro.layout.env.PlacementEnv.cost_many`, which reaches
``PlacementEvaluator.evaluate_many`` and the placement-batched compiled
solver underneath), and the agent *observes* all outcomes —
Bellman-updating its Q-table from every candidate, then keeping the
primary move under the usual tolerance rule or undoing it.  Moves come
from the action masks, so the agents apply them without the legality
re-check of the public ``PlacementEnv.step_*``.  With ``batch = 1`` the
round is exactly the classic select → apply → price → learn → keep/undo
step (same RNG stream, same updates, same trajectory, no snapshot);
larger batches add speculative candidates whose priced outcomes
accelerate learning and land in the evaluator's cache.

Learning is **episodic**: after ``episode_length`` agent steps the
environment restarts from the best placement seen (the flat ablation
restarts from the initial one) while all Q-tables persist —
this is how Q-learning "improves over time by gradually refining its
policy" across restarts, the property the paper contrasts against SA.

:class:`FlatQPlacer` is the ablation control: one agent, one Q-table over
the whole placement, no hierarchy — used to demonstrate the scalability
claim (Q-table growth).

Both placers run the shared loop of
:class:`~repro.core.optimizer.BasePlacer` (counting, stops, episode
restarts, the result); what they share beyond it — the annealed
tolerance rule, the exploration schedule step and the tables snapshot —
lives in :class:`_QPlacer`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.optimizer import BasePlacer, Outcome, Proposal
from repro.core.policy import EpsilonSchedule
from repro.core.qlearning import MergeStats, QAgent, QTable
from repro.core.rewards import shaped_reward
from repro.layout.env import PlacementEnv
from repro.layout.placement import Placement


class _QTurn:
    """One agent's round-robin turn as a :class:`ProposingAgent`.

    Subclasses supply the level specifics (state encoding, legal moves,
    apply/undo); this base implements the protocol: ``propose`` selects
    the ε-greedy action plus greedy runners-up, snapshots each runner-up
    (applied and undone on the live environment) and then applies the
    primary move on the live placement, which is priced as it stands;
    ``observe`` Bellman-updates from every outcome and undoes the
    primary move unless the placer's tolerance rule keeps it.
    """

    def __init__(self, placer, agent: QAgent):
        self.placer = placer
        self.agent = agent
        self._state = None

    # ------------------------------------------------- level specifics

    def state(self):
        raise NotImplementedError

    def legal_actions(self) -> list:
        raise NotImplementedError

    def apply(self, action) -> None:
        raise NotImplementedError

    def undo(self, action) -> None:
        raise NotImplementedError

    # ------------------------------------------------- ProposingAgent

    def propose(self, k: int) -> list[Proposal]:
        placer = self.placer
        self._state = self.state()
        legal = self.legal_actions()
        if not legal:
            return []
        primary, *runners_up = self.agent.select_many(
            self._state, legal, k, step=placer.schedule_step()
        )
        speculative = []
        for action in runners_up:
            self.apply(action)
            speculative.append(Proposal(
                action=action,
                placement=placer.env.placement.copy(),
                next_state=self.state(),
            ))
            self.undo(action)
        self.apply(primary)
        return [Proposal(
            action=primary,
            placement=placer.env.placement,
            next_state=self.state(),
        ), *speculative]

    def observe(self, outcomes: Sequence[Outcome]) -> float:
        placer = self.placer
        cost = placer.turn_cost
        for outcome in outcomes:
            reward = shaped_reward(
                cost, outcome.cost, placer.turn_initial, placer.turn_target)
            self.agent.learn(
                self._state, outcome.proposal.action, reward,
                outcome.proposal.next_state,
            )
        primary = outcomes[0]
        if placer.keep_move(cost, primary.cost):
            return primary.cost
        self.undo(primary.proposal.action)
        return cost


class _TopTurn(_QTurn):
    """The group-level agent's turn: rigid translations of whole groups."""

    def state(self):
        return self.placer.env.global_state()

    def legal_actions(self):
        env = self.placer.env
        return [
            (gi, d)
            for gi, name in enumerate(env.group_names)
            for d in env.legal_group_actions(name)
        ]

    def apply(self, action):
        env = self.placer.env
        env.move_group(env.group_names[action[0]], action[1])

    def undo(self, action):
        env = self.placer.env
        env.undo_group(env.group_names[action[0]], action[1])


class _BottomTurn(_QTurn):
    """A group agent's turn: single-unit moves inside its group."""

    def __init__(self, placer, agent: QAgent, group: str):
        super().__init__(placer, agent)
        self.group = group

    def state(self):
        return self.placer.env.group_state(self.group)

    def legal_actions(self):
        return self.placer.env.legal_unit_actions(self.group)

    def apply(self, action):
        self.placer.env.move_unit(self.group, action[0], action[1])

    def undo(self, action):
        self.placer.env.undo_unit(self.group, action[0], action[1])


class _QPlacer(BasePlacer):
    """What both Q-learning placers share on top of the optimize loop.

    The move-acceptance rule, the exploration-schedule step every agent
    cools on, and the tables snapshot (:meth:`export_tables` /
    :meth:`warm_start_from`) over the agents :meth:`_agents` names.
    """

    def __init__(
        self,
        env: PlacementEnv,
        episode_length: int,
        worse_tolerance: float | None,
        batch: int,
        sim_counter: Callable[[], int] | None,
    ):
        if episode_length < 1:
            raise ValueError(f"episode_length must be >= 1, got {episode_length}")
        if worse_tolerance is not None and worse_tolerance < 0:
            raise ValueError("worse_tolerance cannot be negative")
        super().__init__(env, batch, sim_counter)
        self.episode_length = episode_length
        self.worse_tolerance = worse_tolerance

    def schedule_step(self) -> int:
        """Global step all agents share for their exploration schedule."""
        return self._step

    def keep_move(self, cost: float, new_cost: float) -> bool:
        """The tolerance rule: accept unless too much worse than now.

        The tolerance anneals linearly from ``worse_tolerance`` to zero
        across the step budget; ``None`` disables reverting entirely.
        """
        if self.worse_tolerance is None:
            return True
        tolerance = self.worse_tolerance * max(
            0.0, 1.0 - self._step / self._max_steps
        )
        return new_cost <= cost * (1.0 + tolerance)

    def _agents(self) -> "dict[tuple, QAgent]":
        """Every agent, keyed by its snapshot address."""
        raise NotImplementedError

    def export_tables(self) -> "dict[tuple, QTable]":
        """Snapshot every agent's Q-table, keyed by agent address.

        The snapshot is an independent copy — safe to ship across a
        process boundary or to keep merging into a master policy while
        this placer keeps learning.  Addresses are ``("top",)`` and
        ``("bottom", <group>)`` for :class:`MultiLevelPlacer` and
        ``("agent",)`` for :class:`FlatQPlacer`, so a group literally
        named ``"top"`` can never collide with the top agent.
        """
        return {key: agent.table.copy() for key, agent in self._agents().items()}

    def warm_start_from(
        self, tables: "dict[tuple, QTable]", how: str = "theirs"
    ) -> "dict[tuple, MergeStats]":
        """Seed this placer's agents from an exported tables snapshot.

        Args:
            tables: an :meth:`export_tables` snapshot (typically the
                island campaign's master policy).  Agents missing from
                the snapshot start cold; unknown addresses are an error.
            how: :meth:`QTable.merge` conflict rule applied entry-wise
                against whatever the agents already learned.

        Returns:
            Per-agent merge statistics, keyed like the snapshot.
        """
        agents = self._agents()
        unknown = set(tables) - set(agents)
        if unknown:
            raise ValueError(
                f"snapshot carries tables for unknown agents {sorted(unknown)}; "
                f"placer has {sorted(agents)}"
            )
        return {
            key: agents[key].table.merge(table, how=how)
            for key, table in tables.items()
        }


class MultiLevelPlacer(_QPlacer):
    """The paper's placer.

    Every proposed move is priced by the simulator before it is kept: a
    move that worsens the objective beyond the current tolerance (relative
    to the *current* cost — the objective is multiplicative, so tolerances
    must be too) is *reverted*, but the agent still receives the negative
    reward and updates its Q-table — it learns the move is bad without the
    search trajectory paying for it.  This is the "objective-driven" loop
    of the paper's Fig. 2(c): the simulator checks the quality of a move
    and guides the algorithm.  The tolerance decays linearly from
    ``worse_tolerance`` to zero across the step budget, so early episodes
    roam and late episodes polish.

    Args:
        env: placement environment (owns the objective hook).
        alpha: Q-learning rate for all agents.
        gamma: discount factor for all agents.
        epsilon: exploration schedule (shared shape; each agent advances
            its own step counter).
        episode_length: agent steps between environment resets; every
            episode resumes from the best placement seen (elitist).
        worse_tolerance: accepted relative worsening per move (fraction of
            the *current* cost, annealed to zero over the budget);
            ``None`` disables reverting entirely (plain-accept Q-learning,
            used by the acceptance ablation).
        batch: candidate moves priced per agent turn.  1 (default)
            reproduces the classic one-move-per-step trajectory exactly;
            ``k > 1`` adds the agent's top ``k - 1`` greedy runners-up to
            every batched objective call and Bellman-updates from all of
            them.
        seed: RNG seed (agents get independent child generators).
        sim_counter: callable returning cumulative simulator evaluations
            (pass ``lambda: evaluator.sim_count``); defaults to counting
            objective calls.
        exploration: ``"epsilon"`` (default) or ``"ucb"`` — passed to all
            agents; UCB replaces the global epsilon schedule with a
            deterministic per-entry visit-count bonus, the natural mode
            when warm-start tables (which carry visits) are loaded.
    """

    def __init__(
        self,
        env: PlacementEnv,
        alpha: float = 0.3,
        gamma: float = 0.9,
        epsilon: EpsilonSchedule | None = None,
        episode_length: int = 100,
        worse_tolerance: float | None = 0.5,
        batch: int = 1,
        seed: int = 0,
        sim_counter: Callable[[], int] | None = None,
        exploration: str = "epsilon",
    ):
        super().__init__(env, episode_length, worse_tolerance, batch,
                         sim_counter)
        epsilon = epsilon if epsilon is not None else EpsilonSchedule()
        seed_seq = np.random.SeedSequence(seed)
        children = seed_seq.spawn(1 + len(env.group_names))
        self.top_agent = QAgent(alpha, gamma, epsilon,
                                np.random.default_rng(children[0]),
                                exploration=exploration)
        self.bottom_agents = {
            name: QAgent(alpha, gamma, epsilon, np.random.default_rng(child),
                         exploration=exploration)
            for name, child in zip(env.group_names, children[1:])
        }

    def _turns(self) -> list[_QTurn]:
        return [_TopTurn(self, self.top_agent)] + [
            _BottomTurn(self, self.bottom_agents[name], name)
            for name in self.env.group_names
        ]

    def _restart(self, best: Placement) -> None:
        self.env.placement = best.copy()

    def _diagnostics(self) -> dict:
        return self.table_sizes()

    def table_sizes(self) -> dict:
        """Q-table growth diagnostics (the scalability ablation's metric)."""
        bottom = {
            name: agent.table.n_entries
            for name, agent in self.bottom_agents.items()
        }
        return {
            "top_states": self.top_agent.table.n_states,
            "top_entries": self.top_agent.table.n_entries,
            "bottom_entries": bottom,
            "total_entries": self.top_agent.table.n_entries + sum(bottom.values()),
        }

    def _agents(self) -> "dict[tuple, QAgent]":
        agents: dict[tuple, QAgent] = {("top",): self.top_agent}
        for name, agent in self.bottom_agents.items():
            agents[("bottom", name)] = agent
        return agents


class _FlatTurn(_QTurn):
    """The flat placer's single-agent turn over the combined action space."""

    def state(self):
        placer = self.placer
        placement = placer.env.placement
        cells = [(unit, placement.cell_of(unit)) for unit in sorted(placement.units)]
        c0 = min(c for __, (c, __r) in cells)
        r0 = min(r for __, (__c, r) in cells)
        return tuple((unit, c - c0, r - r0) for unit, (c, r) in cells)

    def legal_actions(self):
        env = self.placer.env
        actions = []
        for group in env.group_names:
            for local, direction in env.legal_unit_actions(group):
                actions.append((group, local, direction))
        return actions

    def apply(self, action):
        self.placer.env.move_unit(action[0], action[1], action[2])

    def undo(self, action):
        self.placer.env.undo_unit(action[0], action[1], action[2])


class FlatQPlacer(_QPlacer):
    """Single-agent, single-table Q-learning — the no-hierarchy ablation.

    One Q-table over the *entire* placement state (all unit offsets,
    bbox-normalised) with the combined unit-move action space.  On anything
    beyond toy sizes the state space explodes — which is exactly the
    scalability point the paper's hierarchy addresses.  Turns run through
    the same propose/observe protocol (and ``batch`` knob) as
    :class:`MultiLevelPlacer`; episodes always restart from the initial
    placement.
    """

    def __init__(
        self,
        env: PlacementEnv,
        alpha: float = 0.3,
        gamma: float = 0.9,
        epsilon: EpsilonSchedule | None = None,
        episode_length: int = 100,
        worse_tolerance: float | None = 0.5,
        batch: int = 1,
        seed: int = 0,
        sim_counter: Callable[[], int] | None = None,
        exploration: str = "epsilon",
    ):
        super().__init__(env, episode_length, worse_tolerance, batch,
                         sim_counter)
        self.agent = QAgent(
            alpha, gamma, epsilon if epsilon is not None else EpsilonSchedule(),
            np.random.default_rng(seed),
            exploration=exploration,
        )

    def _turns(self) -> list[_QTurn]:
        return [_FlatTurn(self, self.agent)]

    def _diagnostics(self) -> dict:
        return {
            "states": self.agent.table.n_states,
            "entries": self.agent.table.n_entries,
        }

    def _agents(self) -> "dict[tuple, QAgent]":
        return {("agent",): self.agent}
