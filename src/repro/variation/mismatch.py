"""Pelgrom-law random local mismatch.

Random variation is *placement-independent* (only device area matters), so
it cannot be optimized by the placer — the paper points this out: random
variation is handled by sizing, systematic variation by layout.  The model
is still needed for two things:

* offset studies in the examples (total = systematic + random);
* the sanity anchor that placement optimization leaves the random floor
  untouched (tested in ``tests/variation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PelgromMismatch:
    """Area-scaled random mismatch, Pelgrom & Duinmaijer (JSSC'89).

    Standard deviations for a *single unit* of drawn size ``W x L``::

        sigma(dVth)      = a_vth  / sqrt(W * L)
        sigma(dbeta/beta) = a_beta / sqrt(W * L)

    with ``W``, ``L`` in metres.  Matching coefficients are quoted in the
    customary units (mV*um for ``a_vth``, %*um for ``a_beta``) via the
    constructor helpers to keep magnitudes recognisable.

    Attributes:
        a_vth: V_th matching coefficient [V*m].
        a_beta: beta matching coefficient [m] (dimensionless shift * m).
    """

    a_vth: float = 3.5e-3 * 1e-6
    a_beta: float = 0.01 * 1e-6

    def __post_init__(self) -> None:
        if self.a_vth < 0 or self.a_beta < 0:
            raise ValueError("matching coefficients cannot be negative")

    def sigma_vth(self, width: float, length: float) -> float:
        """Per-unit V_th sigma [V] for a ``width x length`` [m] unit."""
        self._check_dims(width, length)
        return self.a_vth / math.sqrt(width * length)

    def sigma_beta(self, width: float, length: float) -> float:
        """Per-unit relative-beta sigma for a ``width x length`` [m] unit."""
        self._check_dims(width, length)
        return self.a_beta / math.sqrt(width * length)

    def sample_unit(
        self, width: float, length: float, rng: np.random.Generator
    ) -> tuple[float, float]:
        """Draw one unit's random ``(dvth, dbeta_rel)`` pair."""
        return (
            float(rng.normal(0.0, self.sigma_vth(width, length))),
            float(rng.normal(0.0, self.sigma_beta(width, length))),
        )

    @staticmethod
    def _check_dims(width: float, length: float) -> None:
        if width <= 0 or length <= 0:
            raise ValueError(f"unit dimensions must be positive, got {width} x {length}")
