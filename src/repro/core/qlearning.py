"""Tabular Q-learning: the Q-table and the Bellman update (paper Eq. 1-2).

The update implemented verbatim from the paper::

    Q(S_t, A_t) <- (1 - alpha) Q(S_t, A_t) + alpha [R_{t+1} + gamma V(S_{t+1})]
    V(s) = max_a Q(s, a)

States are arbitrary hashables (the environment provides translation-
invariant encodings); actions likewise.  Unvisited (state, action) entries
read as 0, so optimistic/neutral initialisation is implicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.policy import EpsilonSchedule, epsilon_greedy_topk, ucb_topk

#: Conflict rules :meth:`QTable.merge` understands — the single source
#: every merge-rule validation (specs, campaigns, CLI choices) refers to.
#: ``"visits"`` is the visit-count-weighted average (smarter policy
#: synchronisation: heavily-updated entries dominate lightly-explored
#: ones instead of a blind max).
MERGE_HOWS = ("theirs", "ours", "max", "visits")

#: Exploration modes :class:`QAgent` understands — ``"epsilon"`` is the
#: paper's decaying epsilon-greedy schedule; ``"ucb"`` replaces it with a
#: deterministic visit-aware UCB bonus (the right mode when a warm-start
#: table already carries visit evidence — see :func:`repro.core.policy
#: .ucb_select`).
EXPLORATIONS = ("epsilon", "ucb")


@dataclass
class MergeStats:
    """What one :meth:`QTable.merge` call did, entry by entry.

    Attributes:
        added: entries only the other table held (always absorbed).
        updated: shared entries whose local value changed.
        kept: shared entries whose local value survived unchanged.
    """

    added: int = 0
    updated: int = 0
    kept: int = 0

    def __iadd__(self, other: "MergeStats") -> "MergeStats":
        self.added += other.added
        self.updated += other.updated
        self.kept += other.kept
        return self


@dataclass
class PruneStats:
    """What one :meth:`QTable.prune` call removed.

    Attributes:
        kept: entries that survived compaction.
        dropped: entries removed (stale or negligible).
    """

    kept: int = 0
    dropped: int = 0

    @property
    def total(self) -> int:
        return self.kept + self.dropped


class QTable:
    """Sparse state → (action → value) table.

    Every entry also carries a **visit count** — how many Bellman updates
    (:meth:`record` calls) produced its current value.  Visits never
    change values or action selection; they are evidence weights for the
    ``"visits"`` merge rule and staleness markers for :meth:`prune`.
    """

    def __init__(self):
        self._table: dict = {}
        self._visits: dict = {}

    def actions(self, state) -> dict:
        """Action-value mapping of a state ({} if unvisited)."""
        return self._table.get(state, {})

    def get(self, state, action) -> float:
        return self._table.get(state, {}).get(action, 0.0)

    def set(self, state, action, value: float, visits: int | None = None) -> None:
        # Coerce so numpy scalars (rewards flowing out of batched
        # ``cost_many`` arrays) never reach the table: entries stay plain
        # floats and always survive json serialization.
        self._table.setdefault(state, {})[action] = float(value)
        if visits is not None:
            self._visits.setdefault(state, {})[action] = int(visits)

    def record(self, state, action, value: float) -> None:
        """Set an entry *and* bump its visit count — one learning update."""
        self.set(state, action, value)
        entries = self._visits.setdefault(state, {})
        entries[action] = entries.get(action, 0) + 1

    def visits(self, state, action) -> int:
        """Visit count of an entry (0 for unvisited / loaded-cold entries)."""
        return self._visits.get(state, {}).get(action, 0)

    def visit_counts(self, state) -> dict:
        """Action → visit count mapping of a state ({} if unvisited)."""
        return self._visits.get(state, {})

    def copy(self) -> "QTable":
        """An independent copy (entries are immutable, so one level deep)."""
        dup = QTable()
        dup._table = {state: dict(actions) for state, actions in self._table.items()}
        dup._visits = {state: dict(counts) for state, counts in self._visits.items()}
        return dup

    def state_value(self, state) -> float:
        """V(s) = max_a Q(s, a) over visited actions, 0 if none (Eq. 2)."""
        entries = self._table.get(state)
        if not entries:
            return 0.0
        return max(entries.values())

    def items(self) -> Iterator[tuple]:
        """Iterate ``(state, action, value)`` entries in insertion order.

        The public walk persistence, diagnostics and merging use — no
        caller needs to reach into the internal dict-of-dicts.
        """
        for state, actions in self._table.items():
            for action, value in actions.items():
                yield state, action, value

    def entries(self) -> Iterator[tuple]:
        """Iterate ``(state, action, value, visits)`` in insertion order."""
        for state, actions in self._table.items():
            visit_row = self._visits.get(state, {})
            for action, value in actions.items():
                yield state, action, value, visit_row.get(action, 0)

    def merge(self, other: "QTable", how: str = "theirs") -> MergeStats:
        """Fold another table's entries into this one, in place.

        Args:
            other: table whose entries to absorb.
            how: conflict rule for entries both tables hold —
                ``"theirs"`` (the other table wins; use when ``other`` is
                newer, e.g. a resumed snapshot), ``"ours"`` (keep local
                values), ``"max"`` (optimistic: keep the larger Q), or
                ``"visits"`` (visit-count-weighted average — the entry
                with more Bellman updates behind it carries more weight;
                two zero-visit entries fall back to ``"theirs"``).

        Visit counts always *sum* across a merge, whatever the rule:
        they count the learning updates that informed the surviving
        table, so merged evidence accumulates.

        Returns:
            Per-entry accounting of what happened — the island-training
            driver reports these so policy-synchronisation progress
            (shrinking ``added``, growing ``kept``) is observable.
        """
        if how not in MERGE_HOWS:
            raise ValueError(
                f"how must be one of {MERGE_HOWS}, got {how!r}"
            )
        stats = MergeStats()
        for state, action, value, theirs_visits in other.entries():
            entries = self._table.get(state)
            new = entries is None or action not in entries
            ours_visits = 0 if new else self.visits(state, action)
            total_visits = ours_visits + theirs_visits
            if new:
                self.set(state, action, value, visits=theirs_visits)
                stats.added += 1
                continue
            current = entries[action]
            if how == "theirs":
                merged = float(value)
            elif how == "ours":
                merged = current
            elif how == "max":
                merged = max(current, float(value))
            elif total_visits == 0:
                merged = float(value)
            else:
                merged = (
                    current * ours_visits + float(value) * theirs_visits
                ) / total_visits
            if merged != current:
                self.set(state, action, merged, visits=total_visits)
                stats.updated += 1
            else:
                self.set(state, action, merged, visits=total_visits)
                stats.kept += 1
        return stats

    def prune(self, min_visits: int = 0, min_abs_q: float = 0.0) -> PruneStats:
        """Drop stale / negligible entries in place — Q-table compaction.

        An entry is removed when its visit count is below ``min_visits``
        **or** its ``|Q|`` is below ``min_abs_q``; states left with no
        actions disappear entirely.  The defaults remove nothing, so
        ``prune()`` is always safe to call unconditionally (e.g. before a
        policy-store snapshot).

        Returns:
            How many entries survived and how many were dropped.
        """
        if min_visits < 0:
            raise ValueError(f"min_visits must be >= 0, got {min_visits}")
        if min_abs_q < 0:
            raise ValueError(f"min_abs_q must be >= 0, got {min_abs_q}")
        stats = PruneStats()
        for state in list(self._table):
            actions = self._table[state]
            visit_row = self._visits.get(state, {})
            for action in list(actions):
                if (visit_row.get(action, 0) < min_visits
                        or abs(actions[action]) < min_abs_q):
                    del actions[action]
                    visit_row.pop(action, None)
                    stats.dropped += 1
                else:
                    stats.kept += 1
            if not actions:
                del self._table[state]
                self._visits.pop(state, None)
        return stats

    @property
    def n_states(self) -> int:
        return len(self._table)

    @property
    def n_entries(self) -> int:
        return sum(len(v) for v in self._table.values())


#: UCB exploration strength of ``exploration="ucb"`` agents.
UCB_C = 0.5


class QAgent:
    """One tabular Q-learning agent.

    Args:
        alpha: learning rate (paper's alpha).
        gamma: discount factor (paper's gamma).
        epsilon: exploration schedule.
        rng: random generator (shared or per-agent).
        exploration: ``"epsilon"`` (default) for the decaying
            epsilon-greedy schedule, or ``"ucb"`` for deterministic
            visit-aware UCB selection — the per-entry visit counts the
            table already records drive the exploration bonus instead of
            the global schedule, at strength :data:`UCB_C`.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        gamma: float = 0.9,
        epsilon: EpsilonSchedule | None = None,
        rng: np.random.Generator | None = None,
        exploration: str = "epsilon",
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        if exploration not in EXPLORATIONS:
            raise ValueError(
                f"exploration must be one of {EXPLORATIONS}, got {exploration!r}"
            )
        self.alpha = alpha
        self.gamma = gamma
        self.epsilon = epsilon if epsilon is not None else EpsilonSchedule()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.exploration = exploration
        self.table = QTable()
        self.steps = 0

    def select_many(
        self, state, legal_actions: list, k: int, step: int | None = None
    ) -> list:
        """The exploratory action plus up to ``k - 1`` ranked extras.

        One *selection event* (one schedule step; the first action is the
        epsilon-greedy or UCB pick), returning the candidate set a batched
        evaluator prices in one shot.  ``k = 1`` is a single pick.

        Args:
            state: current state.
            legal_actions: non-empty candidate actions.
            k: most candidates returned.
            step: schedule position; pass the *optimizer's global* step in
                multi-agent settings so all agents cool together (an agent
                acting 1/N of the time would otherwise stay explorative N
                times longer).  Defaults to this agent's own counter.
        """
        t = self.steps if step is None else step
        self.steps += 1
        if self.exploration == "ucb":
            return ucb_topk(
                self.table.actions(state), self.table.visit_counts(state),
                legal_actions, t, UCB_C, k,
            )
        eps = self.epsilon.value(t)
        return epsilon_greedy_topk(
            self.table.actions(state), legal_actions, eps, self.rng, k
        )

    def learn(self, state, action, reward: float, next_state) -> float:
        """Apply the Bellman update; returns the new Q(s, a)."""
        old = self.table.get(state, action)
        target = reward + self.gamma * self.table.state_value(next_state)
        new = (1.0 - self.alpha) * old + self.alpha * target
        self.table.record(state, action, new)
        return new
