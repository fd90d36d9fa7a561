"""Preference-conditioned objective weights for placement serving.

One served request can ask for an area-lean or matching-lean layout
without retraining anything: a validated weight vector rides the request
schema into :class:`~repro.eval.evaluator.PlacementEvaluator`'s cost
composition (the flexible multiple-objective RL placement recipe —
condition the scalar objective on user preferences instead of fixing
it).  The composition is

``cost = matching * primary``
``cost *= 1 + (AREA_WEIGHT * area) * max(0, spread - 1)``      (if != 0)
``cost += noise * power_w + parasitics * wirelength_um``        (if != 0)

where ``primary`` is the suite's headline metric (mismatch %, offset mV),
``AREA_WEIGHT`` the evaluator's constant 0.05 (a request scales it
through ``area``), ``spread`` the bounding-box area per unit, and the
noise/parasitics terms lean on the proxies every measurement suite
already emits (static power tracks noise-critical bias currents;
estimated wirelength tracks routing parasitics).  All metrics and
weights are non-negative, so the cost is monotone non-decreasing in
every weight — raising a weight can only penalise the quantity it
names.

**The default vector is bit-identical to the historical scalar cost**:
``matching = area = 1.0`` multiply through exactly (IEEE ``1.0 * x == x``)
and the zero-weight additive terms are skipped rather than added, so a
default-weight evaluator reproduces pre-zoo costs bit for bit — the
golden-pinned serving contract.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite
from typing import Any, Mapping

#: The weight names a request's ``objective`` mapping may carry.
OBJECTIVE_KEYS = ("matching", "area", "noise", "parasitics")


@dataclass(frozen=True)
class ObjectiveWeights:
    """User preference weights over the placement objective.

    Attributes:
        matching: scale on the suite's headline mismatch/offset metric
            (must stay positive — it is the term the paper optimizes).
        area: scale on the evaluator's multiplicative area term (its
            ``AREA_WEIGHT`` constant is multiplied by this; 0 disables).
        noise: additive weight on the static-power proxy [1/W].
        parasitics: additive weight on the wirelength proxy [1/µm].
    """

    matching: float = 1.0
    area: float = 1.0
    noise: float = 0.0
    parasitics: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"objective weight {f.name!r} must be a number, "
                    f"got {value!r}"
                )
            value = float(value)
            if not isfinite(value) or value < 0.0:
                raise ValueError(
                    f"objective weight {f.name!r} must be finite and >= 0, "
                    f"got {value}"
                )
            object.__setattr__(self, f.name, value)
        if self.matching == 0.0:
            raise ValueError(
                "objective weight 'matching' must be > 0; the headline "
                "metric anchors the cost"
            )

    @classmethod
    def from_mapping(
        cls, data: Mapping[str, Any] | None
    ) -> "ObjectiveWeights":
        """Build from a (possibly partial) request mapping.

        Unknown keys are rejected loudly — a typo'd weight silently
        falling back to its default would serve the wrong objective.
        """
        if not data:
            return cls()
        unknown = set(data) - set(OBJECTIVE_KEYS)
        if unknown:
            raise ValueError(
                f"unknown objective weights {sorted(unknown)}; "
                f"valid keys: {list(OBJECTIVE_KEYS)}"
            )
        return cls(**{key: float(value) for key, value in data.items()})
