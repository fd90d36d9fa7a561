"""Placement-batched analyses: K same-shape circuits solved together.

The optimization loop prices *candidate batches*: K placements of one
block, identical in structure, differing only in parasitic capacitor
values and variation deltas.  The drivers here mirror the scalar entry
points (:func:`repro.sim.dc.solve_dc`, :func:`repro.sim.ac.solve_ac`) but
take *sequences* and return one result per circuit:

* :func:`solve_dc_many` — batched damped Newton on a stacked system with
  a per-placement active mask: every iteration assembles and solves only
  the placements that have not yet met their own convergence criteria,
  so results match the scalar path placement-for-placement.  Placements
  the batched stage cannot converge fall back to the scalar homotopy
  chain (gmin/source stepping) individually.
* :func:`solve_ac_many` — per-placement ``(G, C, b)`` stacks solved as
  one placements × frequencies ``np.linalg.solve`` batch.

For fewer than two circuits both drivers loop the scalar entry point, so
callers can thread batches unconditionally.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.nets import is_ground
from repro.sim.ac import AcResult, solve_ac
from repro.sim.compiled import BatchedCompiledSystem, batched_system
from repro.sim.dc import (
    ABSTOL_V,
    MAX_STEP_V,
    RESIDTOL_I,
    RESIDTOL_V,
    DcResult,
    _package,
    solve_dc,
)
from repro.sim.fastpath import STATS, get_solver_tuning
from repro.tech import Technology
from repro.variation import DeviceDelta

DeltasList = Sequence[Mapping[str, DeviceDelta] | None]

#: Residual contraction factor a frozen-Jacobian iteration must beat;
#: worse than this refactors (and a fresh iteration contracting worse
#: stops offering its Jacobian for reuse).
REUSE_CONTRACTION = 0.5


def _deltas(deltas_list: DeltasList | None, n: int) -> list:
    if deltas_list is None:
        return [None] * n
    deltas_list = list(deltas_list)
    if len(deltas_list) != n:
        raise ValueError(f"got {n} circuits but {len(deltas_list)} delta sets")
    return deltas_list


def _x0_row(x0, i: int) -> np.ndarray | None:
    """Warm-start vector of row ``i`` (shared vector, per-row list or None)."""
    if x0 is None:
        return None
    if isinstance(x0, np.ndarray) and x0.ndim == 1:
        return x0
    return x0[i]


# ------------------------------------------------------------------------ DC


def _solve_rows(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Row-wise Newton steps ``-J \\ F``; singular rows come back as NaN."""
    try:
        return np.linalg.solve(J, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(F, np.nan)
        for i in range(len(F)):
            try:
                out[i] = np.linalg.solve(J[i], -F[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton_many(
    bsys: BatchedCompiledSystem,
    X0: np.ndarray,
    gmin: float,
    source_scale: float,
    source_values: Mapping[str, float] | None,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton over a placement batch with per-row convergence.

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
    reuse = get_solver_tuning().jacobian_reuse
    X = X0.copy()
    n_rows = X.shape[0]
    n_nodes = bsys.n_nodes
    has_branches = bsys.size > n_nodes
    iters = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    active = np.arange(n_rows)
    J_frozen = np.empty((n_rows, bsys.size, bsys.size)) if reuse else None
    prev_resid = np.full(n_rows, np.inf)
    frozen_mode = False

    def assemble(X_act, want_jacobian=True):
        return bsys.assemble_dc_batch(
            X_act, gmin=gmin, source_scale=source_scale,
            source_values=source_values, rows=active,
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
            if reuse:
                resid = abs_f.max(axis=1) if F.shape[1] else \
                    np.zeros(active.size)
                J_frozen[active] = J
            STATS.jacobian_factorizations += active.size
        iters[active] += 1
        STATS.newton_iterations += active.size
        if reuse:
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
            if reuse:
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
            frozen_mode = reuse and bool(contracting[~done].all())
        else:
            # Criteria met against a frozen Jacobian are not accepted
            # yet: those rows stay active and the next iteration runs
            # fresh to confirm them.
            frozen_mode = (
                reuse and not bool(done.any())
                and bool(contracting.all())
            )
    return X, iters, converged


def solve_dc_many(
    circuits: Sequence[Circuit],
    tech: Technology,
    deltas_list: DeltasList | None = None,
    x0=None,
    source_values: Mapping[str, float] | None = None,
    gmin: float = 1e-12,
    max_iter: int = 150,
    system: BatchedCompiledSystem | None = None,
) -> list[DcResult]:
    """DC operating points of K same-shape circuits, solved as one batch.

    Args:
        circuits: same-structure circuit instances (per-placement values).
        deltas_list: one delta mapping per circuit (or ``None``).
        x0: shared warm-start vector, or one vector per circuit.
        source_values: per-source dc overrides, shared by the batch.
        system: prebuilt batched system for ``circuits`` (unused for a
            single circuit, which loops the scalar solver).

    Raises:
        ConvergenceError: if any circuit defeats every scalar fallback.
    """
    circuits = list(circuits)
    if not circuits:
        return []
    deltas_list = _deltas(deltas_list, len(circuits))
    if len(circuits) < 2:
        return [
            solve_dc(c, tech, deltas=d, x0=_x0_row(x0, i),
                     source_values=source_values, gmin=gmin,
                     max_iter=max_iter)
            for i, (c, d) in enumerate(zip(circuits, deltas_list))
        ]
    bsys = system if system is not None else batched_system(
        circuits, tech, deltas_list)
    X0 = np.zeros((len(circuits), bsys.size))
    if isinstance(x0, np.ndarray) and x0.ndim == 1:
        X0[:] = x0
    elif x0 is not None:
        X0[:] = np.stack(x0)
    X, iters, converged = _newton_many(
        bsys, X0, gmin, 1.0, source_values, max_iter
    )
    results: list[DcResult] = []
    for i, (circuit, deltas) in enumerate(zip(circuits, deltas_list)):
        if converged[i]:
            results.append(_package(bsys, X[i], int(iters[i])))
        else:
            # The scalar driver replays plain Newton, then escalates
            # through gmin and source stepping — identical to what the
            # sequential path would have done for this placement.
            results.append(solve_dc(
                circuit, tech, deltas=deltas, x0=_x0_row(x0, i),
                source_values=source_values, gmin=gmin, max_iter=max_iter,
                system=bsys.system(i),
            ))
    return results


# ------------------------------------------------------------------------ AC


def solve_ac_many(
    circuits: Sequence[Circuit],
    tech: Technology,
    op_voltages_seq: Sequence[Mapping[str, float]],
    freqs: np.ndarray,
    deltas_list: DeltasList | None = None,
    system: BatchedCompiledSystem | None = None,
    nets: Sequence[str] | None = None,
) -> list[AcResult]:
    """Small-signal AC of K same-shape circuits over one frequency grid.

    All placements and all frequency points solve in a single stacked
    ``np.linalg.solve``; per-placement results match :func:`solve_ac`.
    ``nets`` restricts the extracted responses, as in :func:`solve_ac`.
    """
    circuits = list(circuits)
    if not circuits:
        return []
    if len(op_voltages_seq) != len(circuits):
        raise ValueError(
            f"got {len(circuits)} circuits but {len(op_voltages_seq)} "
            "operating points"
        )
    deltas_list = _deltas(deltas_list, len(circuits))
    if len(circuits) < 2:
        return [
            solve_ac(c, tech, op, freqs, deltas=d, nets=nets)
            for c, op, d in zip(circuits, op_voltages_seq, deltas_list)
        ]
    bsys = system if system is not None else batched_system(
        circuits, tech, deltas_list)
    freqs = np.asarray(freqs, dtype=float)
    X = bsys.solve_ac_batch_many(op_voltages_seq, 2.0 * math.pi * freqs)
    wanted = bsys.circuit_nets if nets is None else nets
    results = []
    for i in range(len(circuits)):
        out = {}
        for net in wanted:
            if is_ground(net):
                out[net] = np.zeros(len(freqs), dtype=complex)
            else:
                out[net] = np.ascontiguousarray(X[i, :, bsys.node_index[net]])
        results.append(AcResult(freqs=freqs, node_voltages=out))
    return results
