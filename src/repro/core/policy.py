"""Exploration policies for tabular Q-learning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linearly decaying exploration rate.

    epsilon(t) falls from ``start`` to ``end`` over ``decay_steps`` agent
    steps and stays at ``end`` afterwards.  The paper relies on Q-learning
    "gradually refining its policy"; early exploration with late
    exploitation is what makes that happen in a tabular setting.
    """

    start: float = 0.9
    end: float = 0.08
    decay_steps: int = 1500

    def __post_init__(self) -> None:
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ValueError(
                f"need 0 <= end <= start <= 1, got start={self.start} end={self.end}"
            )
        if self.decay_steps < 1:
            raise ValueError(f"decay_steps must be >= 1, got {self.decay_steps}")

    def value(self, step: int) -> float:
        """Exploration rate at agent step ``step`` (0-based)."""
        if step < 0:
            raise ValueError(f"step cannot be negative, got {step}")
        if step >= self.decay_steps:
            return self.end
        frac = step / self.decay_steps
        return self.start + (self.end - self.start) * frac


def epsilon_greedy(
    q_values: dict, legal_actions: list, epsilon: float, rng: np.random.Generator
):
    """Pick an action: explore with probability epsilon, else greedy.

    Greedy ties (including the everything-unvisited case where all values
    are 0) are broken uniformly at random, which matters a lot for early
    exploration quality.

    Args:
        q_values: action → Q estimate for the current state (missing
            actions count as 0).
        legal_actions: candidate actions (must be non-empty).
        epsilon: exploration probability.
        rng: random generator.
    """
    if not legal_actions:
        raise ValueError("no legal actions to select from")
    if rng.random() < epsilon:
        return legal_actions[int(rng.integers(len(legal_actions)))]
    best_value = max(q_values.get(a, 0.0) for a in legal_actions)
    best = [a for a in legal_actions if q_values.get(a, 0.0) == best_value]
    return best[int(rng.integers(len(best)))]


def epsilon_greedy_topk(
    q_values: dict,
    legal_actions: list,
    epsilon: float,
    rng: np.random.Generator,
    k: int,
):
    """The epsilon-greedy pick plus up to ``k - 1`` greedy runners-up.

    The first returned action is **exactly** :func:`epsilon_greedy` — the
    same RNG draws in the same order — so ``k = 1`` reproduces unbatched
    selection bit for bit.  The extras are the remaining legal actions
    ranked by Q estimate (stable sort: legal-list order breaks ties), the
    candidates a batched evaluator prices speculatively.

    Args:
        k: maximum number of actions to return (>= 1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    primary = epsilon_greedy(q_values, legal_actions, epsilon, rng)
    if k == 1:
        return [primary]
    rest = [a for a in legal_actions if a != primary]
    rest.sort(key=lambda a: -q_values.get(a, 0.0))
    return [primary] + rest[: k - 1]


def _ucb_scores(
    q_values: dict, visit_counts: dict, legal_actions: list, t: int, c: float
) -> list[float]:
    bonus_scale = np.sqrt(np.log(t + 2.0))
    return [
        q_values.get(a, 0.0)
        + c * float(bonus_scale) / np.sqrt(visit_counts.get(a, 0) + 1.0)
        for a in legal_actions
    ]


def ucb_select(
    q_values: dict,
    visit_counts: dict,
    legal_actions: list,
    t: int,
    c: float,
):
    """UCB1-style visit-aware action selection.

    Score each legal action ``Q(s, a) + c * sqrt(log(t + 2) / (n(s, a) + 1))``
    and take the argmax.  Unvisited actions get the full bonus, so the
    policy systematically tries what a transferred warm-start table has
    no evidence about, while heavily-visited entries are trusted at face
    value — the reason this mode replaces the global epsilon schedule
    when a zoo warm start is loaded: a decayed schedule would barely
    explore, a fresh one would trash the transferred policy.

    Fully deterministic: no RNG is consumed, and score ties break in
    legal-action order.

    Args:
        q_values: action → Q estimate for the current state.
        visit_counts: action → Bellman-update count for the state.
        legal_actions: candidate actions (must be non-empty).
        t: global optimizer step (drives the slowly-growing numerator).
        c: exploration strength (0 is pure greedy with deterministic
            tie-breaks).
    """
    if not legal_actions:
        raise ValueError("no legal actions to select from")
    if t < 0:
        raise ValueError(f"step cannot be negative, got {t}")
    if c < 0:
        raise ValueError(f"ucb exploration constant cannot be negative, got {c}")
    scores = _ucb_scores(q_values, visit_counts, legal_actions, t, c)
    return legal_actions[int(np.argmax(scores))]


def ucb_topk(
    q_values: dict,
    visit_counts: dict,
    legal_actions: list,
    t: int,
    c: float,
    k: int,
):
    """The UCB pick plus up to ``k - 1`` runners-up by UCB score.

    The first returned action is exactly :func:`ucb_select`; the extras
    are the remaining legal actions ranked by the same score (stable
    sort: legal-list order breaks ties).  ``k = 1`` reproduces unbatched
    selection exactly.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    primary = ucb_select(q_values, visit_counts, legal_actions, t, c)
    if k == 1:
        return [primary]
    scored = {
        a: s for a, s in zip(
            legal_actions,
            _ucb_scores(q_values, visit_counts, legal_actions, t, c))
    }
    rest = [a for a in legal_actions if a != primary]
    rest.sort(key=lambda a: -scored[a])
    return [primary] + rest[: k - 1]
