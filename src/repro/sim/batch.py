"""Placement-batched analyses: K placements of one testbench solved together.

The optimization loop prices *candidate batches*: K placements of one
block, which differ only in their variation deltas and parasitic
capacitor values, never in structure.  A batch is therefore the
testbench's own binding rebound with one row per placement
(:meth:`CompiledSystem.rebind` with a list of delta sets), and the
drivers here mirror the scalar entry points
(:func:`repro.sim.dc.solve_dc`, :func:`repro.sim.ac.solve_ac`) on it,
returning one result per row:

* :func:`solve_dc_many` — batched damped Newton with a per-row active
  set: every iteration assembles and solves only the rows that have not
  yet met their own convergence criteria, so results match the scalar
  path row for row.  Rows the batched stage cannot converge fall back,
  one at a time, to the scalar homotopy chain (gmin/source stepping) on
  a one-row rebind.
* :func:`solve_ac_many` — every row × frequency solved as one stacked
  ``np.linalg.solve`` batch.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.nets import is_ground
from repro.sim.ac import AcResult
from repro.sim.compiled import CompiledSystem
from repro.sim.dc import (
    ABSTOL_V,
    MAX_STEP_V,
    RESIDTOL_I,
    RESIDTOL_V,
    DcResult,
    _package,
    _solve_rows,
    solve_dc,
)
from repro.sim.fastpath import STATS

#: Residual contraction factor a frozen-Jacobian iteration must beat;
#: worse than this refactors (and a fresh iteration contracting worse
#: stops offering its Jacobian for reuse).
REUSE_CONTRACTION = 0.5


def _x0_row(x0, i: int) -> np.ndarray | None:
    """Warm-start vector of row ``i`` (shared vector, per-row list or None)."""
    if x0 is None:
        return None
    if isinstance(x0, np.ndarray) and x0.ndim == 1:
        return x0
    return x0[i]


# ------------------------------------------------------------------------ DC


def _newton_many(
    system: CompiledSystem,
    X0: np.ndarray,
    gmin: float,
    source_scale: float,
    source_values: Mapping[str, float] | None,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton over the rows of a rows binding, per-row convergence.

    Per-row semantics follow :func:`repro.sim.dc._newton`: the same
    damping rule, the same node/branch residual criteria, and each row
    stops updating the moment *its* criteria are met (converged rows are
    dropped from the active set).  Returns ``(X, iterations, converged)``.

    Jacobian reuse is batch-level: once every active row's residual
    contracts, iterations assemble residuals only and step against the
    frozen Jacobian stack; any row stalling (or going non-finite)
    refactors the whole active set at the current iterates.  Rows whose
    criteria are met under a frozen Jacobian stay active for one
    fresh-Jacobian confirm iteration, so accepted rows carry the same
    quadratic final error as the scalar driver's full Newton.
    """
    X = X0.copy()
    n_rows = X.shape[0]
    n_nodes = system.n_nodes
    has_branches = system.size > n_nodes
    iters = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    active = np.arange(n_rows)
    J_frozen = np.empty((n_rows, system.size, system.size))
    prev_resid = np.full(n_rows, np.inf)
    frozen_mode = False

    def assemble(X_act, want_jacobian=True):
        return system.assemble_dc(
            X_act, gmin, source_scale,
            None if source_values is None else [source_values] * len(X_act),
            active=None if active.size == n_rows else active,
            want_jacobian=want_jacobian,
        )

    for __ in range(max_iter):
        fresh = True
        X_act = X[active]
        if frozen_mode:
            __f, F = assemble(X_act, want_jacobian=False)
            abs_f = np.abs(F)
            resid = abs_f.max(axis=1) if F.shape[1] else \
                np.zeros(active.size)
            if (resid > REUSE_CONTRACTION * prev_resid[active]).any():
                # A stalled row spoils the frozen stack for everyone:
                # refactor the whole active set at the current iterates.
                J, __f = assemble(X_act)
                J_frozen[active] = J
                STATS.jacobian_factorizations += active.size
            else:
                fresh = False
                STATS.jacobian_reuses += active.size
            J = J_frozen[active]
        else:
            J, F = assemble(X_act)
            abs_f = np.abs(F)
            resid = abs_f.max(axis=1) if F.shape[1] else \
                np.zeros(active.size)
            J_frozen[active] = J
            STATS.jacobian_factorizations += active.size
        iters[active] += 1
        STATS.newton_iterations += active.size
        contracting = resid <= REUSE_CONTRACTION * prev_resid[active]
        prev_resid[active] = resid
        dx = _solve_rows(J, F)
        good = np.isfinite(dx).all(axis=1)
        all_good = bool(good.all())
        if not all_good and not fresh:
            # Stale factors produced garbage for some rows; retry the
            # whole active set against fresh Jacobians before giving up
            # on any row.
            J, __f = assemble(X_act)
            J_frozen[active] = J
            STATS.jacobian_factorizations += active.size
            fresh = True
            dx = _solve_rows(J, F)
            good = np.isfinite(dx).all(axis=1)
            all_good = bool(good.all())
        if not all_good:
            # Singular / diverged rows keep their last state and leave the
            # batch; the caller sends them down the scalar homotopy chain.
            active, X_act, dx = active[good], X_act[good], dx[good]
            abs_f = abs_f[good]
            contracting = contracting[good]
            if active.size == 0:
                break
        if n_nodes:
            dv = np.abs(dx[:, :n_nodes]).max(axis=1)
            over = dv > MAX_STEP_V
            if over.any():
                dx[over] *= (MAX_STEP_V / dv[over])[:, None]
                dv = np.abs(dx[:, :n_nodes]).max(axis=1)
        X_act = X_act + dx
        X[active] = X_act
        done = np.ones(active.size, dtype=bool)
        if n_nodes:
            vmax = np.abs(X_act[:, :n_nodes]).max(axis=1)
            done &= dv < ABSTOL_V * (1.0 + vmax)
            done &= abs_f[:, :n_nodes].max(axis=1) < RESIDTOL_I
        if has_branches:
            done &= abs_f[:, n_nodes:].max(axis=1) < RESIDTOL_V
        if fresh:
            converged[active[done]] = True
            active = active[~done]
            if active.size == 0:
                break
            # Freeze only when every surviving row is contracting.
            frozen_mode = bool(contracting[~done].all())
        else:
            # Criteria met against a frozen Jacobian are not accepted
            # yet: those rows stay active and the next iteration runs
            # fresh to confirm them.
            frozen_mode = not bool(done.any()) and bool(contracting.all())
    return X, iters, converged


def solve_dc_many(
    system: CompiledSystem,
    x0=None,
    source_values: Mapping[str, float] | None = None,
    gmin: float = 1e-12,
    max_iter: int = 150,
) -> list[DcResult]:
    """DC operating points of every row of a rows binding, as one batch.

    Args:
        system: the testbench rebound with one row per placement
            (:meth:`CompiledSystem.rebind` with a list of delta sets).
        x0: shared warm-start vector, or one vector per row.
        source_values: per-source dc overrides, shared by the rows.

    Raises:
        ConvergenceError: if any row defeats every scalar fallback.
    """
    X0 = np.zeros((system.rows, system.size))
    if isinstance(x0, np.ndarray) and x0.ndim == 1:
        X0[:] = x0
    elif x0 is not None:
        X0[:] = np.stack(x0)
    X, iters, converged = _newton_many(
        system, X0, gmin, 1.0, source_values, max_iter
    )
    results: list[DcResult] = []
    for i, deltas in enumerate(system.deltas):
        if converged[i]:
            results.append(_package(system, X[i], int(iters[i])))
        else:
            # The scalar driver replays plain Newton, then escalates
            # through gmin and source stepping — identical to what the
            # sequential path would have done for this placement.
            results.append(solve_dc(
                system.circuit, system.tech, deltas=deltas,
                x0=_x0_row(x0, i), source_values=source_values, gmin=gmin,
                max_iter=max_iter, system=system.rebind(deltas),
            ))
    return results


# ------------------------------------------------------------------------ AC


def solve_ac_many(
    system: CompiledSystem,
    op_voltages_seq: Sequence[Mapping[str, float]],
    freqs: np.ndarray,
    nets: Sequence[str] | None = None,
) -> list[AcResult]:
    """Small-signal AC of every row of a rows binding over one grid.

    All rows and all frequency points solve in a single stacked
    ``np.linalg.solve``; per-row results match :func:`solve_ac` on a
    one-row rebind.  ``op_voltages_seq`` holds one bias mapping per row;
    ``nets`` restricts the extracted responses, as in :func:`solve_ac`.
    """
    freqs = np.asarray(freqs, dtype=float)
    X = system.solve_ac_batch(op_voltages_seq, 2.0 * math.pi * freqs)
    wanted = system.circuit_nets if nets is None else nets
    results = []
    for row in X:
        out = {}
        for net in wanted:
            if is_ground(net):
                out[net] = np.zeros(len(freqs), dtype=complex)
            else:
                out[net] = np.ascontiguousarray(row[:, system.node_index[net]])
        results.append(AcResult(freqs=freqs, node_voltages=out))
    return results
