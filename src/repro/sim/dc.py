"""Newton–Raphson DC operating-point analysis.

Solution strategy, in escalation order:

1. damped Newton from the supplied (or zero) initial guess;
2. **gmin stepping** — solve with a large gmin, then relax it decade by
   decade, warm-starting each stage;
3. **source stepping** — ramp all independent sources from 0 to 100 %.

Each stage is standard SPICE practice; together they converge every
circuit in the library including the clamped comparator latch.

Stage 1 runs on ``(rows, size)`` states: :func:`solve_dc` takes a list
of source overrides and solves one row per entry on one binding (the
comparator's balanced and two probe inputs), with per-row damping,
convergence and iteration counts, so each row returns what a one-row
call returns.  A row whose plain Newton fails continues into stages 2
and 3 on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.circuit import Circuit
from repro.sim.compiled import CompiledSystem, compiled_system
from repro.sim.fastpath import STATS
from repro.tech import Technology
from repro.variation import DeviceDelta


class ConvergenceError(RuntimeError):
    """DC analysis failed to converge after all homotopy fallbacks.

    ``solved`` lists the results of the rows a stacked
    :func:`solve_dc` call solved before the failing one.
    """

    solved: list = []


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

Overrides = Mapping[str, float] | None

# The ufunc reductions behind ``ndarray.max`` and ``ndarray.all``, called
# directly: the same values without the methods' Python wrappers, which
# cost as much as the reduction on these short rows.
_max = np.maximum.reduce
_all = np.logical_and.reduce


def _solve_rows(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Row-wise Newton steps ``-J \\ F``; singular rows come back as NaN.

    Each row is one LAPACK ``gesv`` call whether it is solved alone or
    in the stack, so a row's step does not depend on the others.
    """
    try:
        if len(F) == 1:
            return np.linalg.solve(J[0], -F[0])[None]
        return np.linalg.solve(J, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(F, np.nan)
        for i in range(len(F)):
            try:
                out[i] = np.linalg.solve(J[i], -F[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton(
    system: CompiledSystem,
    X0: np.ndarray,
    gmin: float,
    source_scale: float,
    source_values: Sequence[Overrides],
    max_iter: int,
) -> tuple[np.ndarray, list[int], list[bool]]:
    """Damped Newton on ``(rows, size)`` states, one row per override set.

    Every row is its own solve on ``system``: it has its own source
    overrides, damping, convergence test and iteration count, and it
    stops the moment its own criteria are met (or its step is singular
    or non-finite).  The rows still running share each assembly and
    stacked linear solve; a one-row call is the plain scalar Newton.
    Every iteration assembles and solves a fresh Jacobian.  The
    placement-batched driver (:func:`repro.sim.batch.solve_dc_many`) is
    where frozen-Jacobian reuse runs; per row it applies the same
    damping rule and convergence criteria as this loop.

    Returns ``(X, iterations, converged)``: per row, its last state, the
    iterations it spent and whether it converged.  Each iteration of a
    row factors one Jacobian; the callers add a row's iterations to the
    solver counters once they reach that row, so a stacked call counts
    exactly what the same rows solved one after another count.
    """
    X = X0.copy()
    rows = len(X)
    n_nodes = system.n_nodes
    has_branches = system.size > n_nodes
    iters = [max_iter] * rows
    converged = [False] * rows
    active = list(range(rows))
    for it in range(1, max_iter + 1):
        if len(active) == rows:
            J, F = system.assemble_dc(X, gmin, source_scale, source_values)
        else:
            J, F = system.assemble_dc(
                X[active], gmin, source_scale,
                [source_values[i] for i in active])
        dx = _solve_rows(J, F)
        running = []
        for i, step, f in zip(active, dx, F):
            if not _all(np.isfinite(step)):
                iters[i] = it  # a singular or non-finite step ends the row
                continue
            # Damp: cap the largest node-voltage move per iteration.
            dv = float(_max(np.abs(step[:n_nodes]))) if n_nodes else 0.0
            if dv > MAX_STEP_V:
                step *= MAX_STEP_V / dv
                dv = float(_max(np.abs(step[:n_nodes])))
            x = X[i]
            x += step
            # Convergence: a small voltage step and small KCL and branch
            # residuals, checked in that order so a step that fails early
            # skips the remaining reductions (``not <`` keeps NaN failing).
            if n_nodes and not dv < ABSTOL_V * (
                    1.0 + _max(np.abs(x[:n_nodes]))):
                running.append(i)
                continue
            abs_f = np.abs(f)
            if n_nodes and not _max(abs_f[:n_nodes]) < RESIDTOL_I:
                running.append(i)
                continue
            if has_branches and not _max(abs_f[n_nodes:]) < RESIDTOL_V:
                running.append(i)
                continue
            iters[i] = it
            converged[i] = True
        active = running
        if not active:
            break
    return X, iters, converged


def solve_dc(
    circuit: Circuit,
    tech: Technology,
    deltas: Mapping[str, DeviceDelta] | None = None,
    x0: np.ndarray | Sequence[np.ndarray | None] | None = None,
    source_values: Overrides | list[Overrides] = None,
    gmin: float = 1e-12,
    max_iter: int = 150,
    system: CompiledSystem | None = None,
) -> DcResult | list[DcResult]:
    """Find the DC operating point of ``circuit``.

    Args:
        circuit: netlist including its sources.
        tech: technology for device models.
        deltas: variation-resolved per-device parameter shifts.
        x0: warm-start vector from a previous solve of the *same* system
            layout (same circuit shape).
        source_values: per-source dc overrides (name → value).  A *list*
            of override mappings solves one row per entry in one stacked
            Newton (rows differing only in their sources, such as the
            comparator's three input levels); ``x0`` is then a list of
            per-row seeds (``None`` entries start from zero, as does
            ``x0=None``) and a list of results comes back, each equal to
            what a one-row call would return.
        gmin: final stabilising conductance.
        max_iter: Newton budget per homotopy stage.
        system: prebuilt assembler for ``circuit`` — skips construction
            entirely (the suites bind each testbench once per block and
            rebind it per placement; the batched driver's fallback
            passes a one-row rebind of its rows binding).

    Raises:
        ConvergenceError: if no strategy converges (for a list of rows,
            on the first row in order that none converges; its
            ``solved`` attribute holds the results of the rows before
            it, and the solver counters hold only the iterations of the
            rows up to it, as one-row calls in order would).
    """
    if system is None:
        system = compiled_system(circuit, tech, deltas)
    stacked = isinstance(source_values, list)
    if stacked:
        overrides = source_values
        guesses = np.zeros((len(overrides), system.size))
        for guess, seed in zip(guesses, () if x0 is None else x0):
            if seed is not None:
                guess[:] = seed
    else:
        overrides = [source_values]
        guesses = (np.zeros(system.size) if x0 is None else x0)[None]

    # Stage 1: plain damped Newton, all rows at once.
    X, iters, ok = _newton(system, guesses, gmin, 1.0, overrides, max_iter)
    results: list[DcResult] = []
    for i, values in enumerate(overrides):
        _count(iters[i])
        if ok[i]:
            results.append(_package(system, X[i], iters[i]))
            continue
        try:
            results.append(_homotopy(
                circuit, system, guesses[i], values, gmin, max_iter,
                iters[i]))
        except ConvergenceError as err:
            err.solved = results
            raise
    return results if stacked else results[0]


def _count(iterations: int) -> None:
    """Add one row's Newton iterations (one factorization each) to the
    solver counters."""
    STATS.newton_iterations += iterations
    STATS.jacobian_factorizations += iterations


def _homotopy(
    circuit: Circuit,
    system: CompiledSystem,
    guess: np.ndarray,
    source_values: Overrides,
    gmin: float,
    max_iter: int,
    total_iters: int,
) -> DcResult:
    """Stages 2 and 3 of :func:`solve_dc` for one row whose plain
    Newton run (``total_iters`` iterations from ``guess``) failed."""
    one = [source_values]

    def newton(x, stage_gmin, scale):
        nonlocal total_iters
        X, iters, ok = _newton(
            system, x[None], stage_gmin, scale, one, max_iter)
        _count(iters[0])
        total_iters += iters[0]
        return X[0], ok[0]

    # Stage 2: gmin stepping.
    x = guess.copy()
    converged_chain = True
    for exp in range(3, 13):
        stage_gmin = 10.0 ** (-exp)
        if stage_gmin < gmin:
            stage_gmin = gmin
        x, ok = newton(x, stage_gmin, 1.0)
        if not ok:
            converged_chain = False
            break
        if stage_gmin <= gmin:
            break
    if converged_chain:
        x, ok = newton(x, gmin, 1.0)
        if ok:
            return _package(system, x, total_iters)

    # Stage 3: source stepping.
    x = np.zeros(system.size)
    ok = True
    for scale in np.linspace(0.1, 1.0, 10):
        x, ok = newton(x, gmin, float(scale))
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
    ``node_index`` and ``branch_index``: the compiled and reference
    assemblers both do.
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
