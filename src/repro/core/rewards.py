"""Reward shaping for the objective-driven placement agents.

The environment is cost-based (lower = better); RL wants rewards (higher =
better).  The shaping used here is the standard potential-based form — the
reward for a move is the *normalised cost improvement* it produced — plus
a terminal bonus when the target quality is reached.  Potential-based
shaping preserves optimal policies (Ng et al., 1999), so the agents
maximise exactly "reach the best placement".
"""

from __future__ import annotations

#: Extra reward for a move that crosses the target cost.
TARGET_BONUS = 5.0


def shaped_reward(
    cost_before: float,
    cost_after: float,
    reference_cost: float,
    target: float | None = None,
) -> float:
    """Reward for a move that changed the objective.

    Args:
        cost_before: objective before the move.
        cost_after: objective after the move.
        reference_cost: normalisation scale (typically the initial cost);
            must be positive.
        target: target cost; reaching it earns :data:`TARGET_BONUS`.
    """
    if reference_cost <= 0:
        raise ValueError(f"reference_cost must be positive, got {reference_cost}")
    reward = (cost_before - cost_after) / reference_cost
    if target is not None and cost_after <= target < cost_before:
        reward += TARGET_BONUS
    return reward
