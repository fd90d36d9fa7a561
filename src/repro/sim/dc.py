"""Newton–Raphson DC operating-point analysis.

Solution strategy, in escalation order:

1. damped Newton from the supplied (or zero) initial guess;
2. **gmin stepping** — solve with a large gmin, then relax it decade by
   decade, warm-starting each stage;
3. **source stepping** — ramp all independent sources from 0 to 100 %.

Each stage is standard SPICE practice; together they converge every
circuit in the library including the clamped comparator latch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.netlist.circuit import Circuit
from repro.sim.compiled import CompiledSystem, compiled_system
from repro.sim.fastpath import STATS
from repro.tech import Technology
from repro.variation import DeviceDelta


class ConvergenceError(RuntimeError):
    """DC analysis failed to converge after all homotopy fallbacks."""


@dataclass
class DcResult:
    """Converged DC solution.

    Attributes:
        voltages: node voltage by net name (ground nets at 0.0).
        branch_currents: current through each voltage-defined element
            (positive = flowing p → n through the element).
        iterations: total Newton iterations spent (all stages).
        x: raw solution vector (for warm starts).
    """

    voltages: dict[str, float]
    branch_currents: dict[str, float]
    iterations: int
    x: np.ndarray

    def voltage(self, net: str) -> float:
        if net not in self.voltages:
            raise KeyError(f"no net named {net!r} in DC result")
        return self.voltages[net]

    def current(self, source_name: str) -> float:
        if source_name not in self.branch_currents:
            raise KeyError(f"no voltage-defined element named {source_name!r}")
        return self.branch_currents[source_name]


MAX_STEP_V = 0.5
ABSTOL_V = 1e-9
# Residual ceilings at convergence.  KCL rows are currents [A]; branch
# rows (voltage sources, VCVS) are voltage-constraint residuals [V] and
# are checked too, so a voltage-source-heavy circuit cannot report
# convergence while a damped step left its source constraints unmet.
RESIDTOL_I = 1e-9
RESIDTOL_V = 1e-9


def _newton(
    system: CompiledSystem,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    source_values: Mapping[str, float] | None,
    max_iter: int,
) -> tuple[np.ndarray, int, bool]:
    """One damped-Newton run; returns (x, iterations, converged).

    Every iteration assembles and solves a fresh Jacobian.  The
    placement-batched driver (:func:`repro.sim.batch.solve_dc_many`) is
    where frozen-Jacobian reuse runs; per row it applies the same
    damping rule and convergence criteria as this loop.
    """
    x = x0.copy()
    n_nodes = system.n_nodes
    has_branches = system.size > n_nodes
    for it in range(1, max_iter + 1):
        STATS.newton_iterations += 1
        STATS.jacobian_factorizations += 1
        J, F = system.assemble_dc(
            x, gmin=gmin, source_scale=source_scale, source_values=source_values
        )
        try:
            dx = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return x, it, False
        if not np.isfinite(dx).all():
            return x, it, False
        # Damp: cap the largest node-voltage move per iteration.
        dv = float(np.abs(dx[:n_nodes]).max()) if n_nodes else 0.0
        if dv > MAX_STEP_V:
            dx *= MAX_STEP_V / dv
            dv = float(np.abs(dx[:n_nodes]).max())
        x += dx
        # Convergence: a small voltage step and small KCL and branch
        # residuals, checked in that order so a step that fails early
        # skips the remaining reductions (``not <`` keeps NaN failing).
        if n_nodes and not dv < ABSTOL_V * (1.0 + np.abs(x[:n_nodes]).max()):
            continue
        abs_f = np.abs(F)
        if n_nodes and not abs_f[:n_nodes].max() < RESIDTOL_I:
            continue
        if has_branches and not abs_f[n_nodes:].max() < RESIDTOL_V:
            continue
        return x, it, True
    return x, max_iter, False


def solve_dc(
    circuit: Circuit,
    tech: Technology,
    deltas: Mapping[str, DeviceDelta] | None = None,
    x0: np.ndarray | None = None,
    source_values: Mapping[str, float] | None = None,
    gmin: float = 1e-12,
    max_iter: int = 150,
    system: CompiledSystem | None = None,
) -> DcResult:
    """Find the DC operating point of ``circuit``.

    Args:
        circuit: netlist including its sources.
        tech: technology for device models.
        deltas: variation-resolved per-device parameter shifts.
        x0: warm-start vector from a previous solve of the *same* system
            layout (same circuit shape).
        source_values: per-source dc overrides (name → value).
        gmin: final stabilising conductance.
        max_iter: Newton budget per homotopy stage.
        system: prebuilt assembler for ``circuit`` — skips construction
            entirely (the comparator suite reuses one system for its
            three solves; the batched driver's fallback passes a row of
            its batched binding).

    Raises:
        ConvergenceError: if no strategy converges.
    """
    if system is None:
        system = compiled_system(circuit, tech, deltas)
    guess = x0.copy() if x0 is not None else np.zeros(system.size)
    total_iters = 0

    # Stage 1: plain damped Newton.
    x, iters, ok = _newton(system, guess, gmin, 1.0, source_values, max_iter)
    total_iters += iters
    if ok:
        return _package(system, x, total_iters)

    # Stage 2: gmin stepping.
    x = guess.copy()
    converged_chain = True
    for exp in range(3, 13):
        stage_gmin = 10.0 ** (-exp)
        if stage_gmin < gmin:
            stage_gmin = gmin
        x, iters, ok = _newton(system, x, stage_gmin, 1.0, source_values, max_iter)
        total_iters += iters
        if not ok:
            converged_chain = False
            break
        if stage_gmin <= gmin:
            break
    if converged_chain:
        x, iters, ok = _newton(system, x, gmin, 1.0, source_values, max_iter)
        total_iters += iters
        if ok:
            return _package(system, x, total_iters)

    # Stage 3: source stepping.
    x = np.zeros(system.size)
    ok = True
    for scale in np.linspace(0.1, 1.0, 10):
        x, iters, ok = _newton(system, x, gmin, float(scale), source_values, max_iter)
        total_iters += iters
        if not ok:
            break
    if ok:
        return _package(system, x, total_iters)

    raise ConvergenceError(
        f"DC analysis of {circuit.name!r} failed after {total_iters} iterations"
    )


def _package(system, x: np.ndarray, iterations: int) -> DcResult:
    """A :class:`DcResult` from solution ``x`` of any assembler.

    ``system`` supplies ``circuit_nets`` (all nets, ground included),
    ``node_index`` and ``branch_index``: the compiled, batched and
    reference assemblers all do.
    """
    values = x.tolist()
    index = system.node_index
    voltages = {
        net: values[index[net]] if net in index else 0.0
        for net in system.circuit_nets
    }
    branch_currents = {
        name: values[row] for name, row in system.branch_index.items()
    }
    return DcResult(
        voltages=voltages,
        branch_currents=branch_currents,
        iterations=iterations,
        x=x,
    )
