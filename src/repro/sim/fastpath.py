"""Solver fast-path statistics.

Two accelerations run on every placement (both preserve results to well
under the 1e-10 equivalence rail); neither has a switch:

* **Jacobian reuse** — modified Newton in the placement-batched DC
  driver (:func:`repro.sim.batch.solve_dc_many`): while the residual
  keeps contracting, iterations reassemble only the residual and step
  against the frozen Jacobian stack; a stall triggers an adaptive
  refactor, and convergence reached under a frozen Jacobian is always
  *confirmed* with one fresh-Jacobian step so the final error stays
  quadratic.  Scalar DC solves always run plain damped Newton: on the
  small MNA systems the library blocks and corpus decks produce,
  assembly dominates and each dense solve is nearly free.
* **Operating-point cache** — see :mod:`repro.eval.warm`: DC solves are
  seeded from the nearest previously converged placement (and reused
  outright when the variation deltas match exactly — the DC system is
  independent of the parasitic capacitances placements actually change).

:func:`solver_stats` exposes counters (Newton iterations, Jacobian
factorizations vs reuses, warm-start hits) and the stacked AC solve
timer that ``repro profile`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SolverStats:
    """Counters and the AC stacked-solve timer of the DC/AC solvers."""

    newton_iterations: int = 0
    jacobian_factorizations: int = 0
    jacobian_reuses: int = 0
    warm_exact_hits: int = 0
    warm_near_hits: int = 0
    warm_misses: int = 0
    ac_solve_s: float = 0.0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0.0 if name.endswith("_s") else 0)

    @property
    def factor_reuse_rate(self) -> float:
        """Fraction of Newton steps that reused a frozen Jacobian."""
        total = self.jacobian_factorizations + self.jacobian_reuses
        return self.jacobian_reuses / total if total else 0.0

    @property
    def warm_hit_rate(self) -> float:
        """Fraction of warm-start lookups served from the op cache."""
        total = self.warm_exact_hits + self.warm_near_hits + self.warm_misses
        hits = self.warm_exact_hits + self.warm_near_hits
        return hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        out = dict(vars(self))
        out["factor_reuse_rate"] = self.factor_reuse_rate
        out["warm_hit_rate"] = self.warm_hit_rate
        return out


STATS = SolverStats()


def solver_stats() -> SolverStats:
    """The process-wide fast-path statistics object."""
    return STATS


def reset_solver_stats() -> None:
    """Zero all fast-path counters and timers."""
    STATS.reset()
