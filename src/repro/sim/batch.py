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
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.nets import is_ground
from repro.sim.ac import AcResult, solve_ac
from repro.sim.compiled import (
    CompiledSystem,
    CompiledTopology,
    _ac_system,
    _delta_arrays,
    _row_indices,
    _RowIndices,
    _signed_sources,
    compiled_topology,
    structure_signature,
)
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
from repro.sim.mosfet import MosfetArrays, terminal_currents_array
from repro.tech import Technology
from repro.variation import DeviceDelta


class BatchedCompiledSystem:
    """K same-shape circuit instances bound and solved as one batch.

    The optimizers' candidate placements differ only in *values* —
    parasitic capacitances and variation deltas — never in structure, so
    their systems share one :class:`CompiledTopology` and stack cleanly:
    ``(G, C, b)`` gain a leading placement axis, the MOSFET bank becomes
    ``(K, n_mos)``, and every analysis solves all placements (and, for
    AC, all frequencies) in a single ``np.linalg.solve`` call.

    Binding is itself batched: element values are gathered into
    ``(K, n_slots)`` matrices and scattered through the topology's index
    arrays once for the whole batch — per-row results are numerically
    identical to K separate :class:`CompiledSystem` bindings (the same
    scatter sequence runs per row), without K passes of per-device
    Python.  Scalar bindings for individual rows (needed only on the
    rare per-placement convergence fallback) are created lazily via
    :meth:`system`.

    ``capacitances``, when given, holds each row's capacitor values (one
    per capacitor, in circuit order) in place of the circuits' own: the
    batched suites pass one testbench circuit for every row and the
    placements' parasitic capacitor values here, as
    :meth:`CompiledSystem.rebind` takes them.
    """

    def __init__(
        self,
        topology: CompiledTopology,
        circuits: Sequence[Circuit],
        tech: Technology,
        deltas_list: Sequence[Mapping[str, DeviceDelta] | None] | None = None,
        capacitances: Sequence[Sequence[float]] | None = None,
    ):
        circuits = list(circuits)
        if not circuits:
            raise ValueError("need at least one circuit to batch")
        if deltas_list is None:
            deltas_list = [None] * len(circuits)
        deltas_list = list(deltas_list)
        if len(deltas_list) != len(circuits):
            raise ValueError(
                f"got {len(circuits)} circuits but {len(deltas_list)} delta sets"
            )
        self.topology = topology
        self.circuits = circuits
        self.tech = tech
        self.deltas_list = deltas_list
        self.k = len(circuits)
        self.size = topology.size
        self.n_nodes = topology.n_nodes
        self.node_index = topology.node_index
        self.branch_index = topology.branch_index
        self.circuit_nets = topology.circuit_nets
        self._scalar: list[CompiledSystem | None] = [None] * self.k

        t = topology
        k = self.k
        stride = self.size + 1

        # Linear conductance stacks (resistor/VCVS values per row).
        lin_values = np.ones((k, t.n_lin_slots))
        for i, circuit in enumerate(circuits):
            for name, slot in t.resistor_slots:
                lin_values[i, slot] = 1.0 / circuit.device(name).value
            for name, slot in t.vcvs_slots:
                lin_values[i, slot] = circuit.device(name).gain
        G = np.zeros((k, stride, stride))
        if t.lin_flat.size:
            np.add.at(
                G.reshape(-1), _row_indices(t, k).lin,
                (t.lin_sign * lin_values[:, t.lin_slot]).reshape(-1),
            )
        self._G_ext = G

        # DC source levels; the AC drive vectors and the capacitance
        # stacks are built on first use (a DC-only batch never needs
        # them).
        self._src_base = np.array([
            [circuit.device(name).dc for name in t.source_names]
            for circuit in circuits
        ]).reshape(k, len(t.source_names))
        self._b_ac: np.ndarray | None = None
        self._cap_rows = capacitances
        self._C: np.ndarray | None = None

        # Variation-resolved MOSFET banks: the shared nominal bank plus
        # stacked per-row delta arrays (dvth adds, dbeta scales kp —
        # exactly the scalar binding's arithmetic, row-wise).
        bank = topology.device_bank(tech)
        self._bank = bank
        n_mos = len(t.mos_names)
        if n_mos:
            dvth, dbeta = _delta_arrays(t.mos_names, deltas_list)
            self._vth0 = bank.vth0 + dvth
            self._kp_wl = (bank.kp * (1.0 + dbeta)) * bank.w_over_l

        # Reusable per-iteration DC workspaces keyed by active-set size
        # (the batched Newton driver reassembles every iteration; the
        # active set only ever shrinks, so a handful of buffers serve a
        # whole solve).
        self._dc_workspace: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._src_key: tuple | None = None
        self._src_injection: np.ndarray | None = None

    # ------------------------------------------------------------- helpers

    def system(self, i: int) -> CompiledSystem:
        """Scalar binding of row ``i`` (lazily created and kept)."""
        bound = self._scalar[i]
        if bound is None:
            bound = self.topology.bind(
                self.circuits[i], self.tech, self.deltas_list[i]
            )
            if self._cap_rows is not None:
                bound = bound.rebind(self.deltas_list[i], self._cap_rows[i])
            self._scalar[i] = bound
        return bound

    def _op_vector_ext(self, op_voltages: Mapping[str, float]) -> np.ndarray:
        x_ext = np.zeros(self.size + 1)
        for net in self.topology.mos_nets:
            if net not in op_voltages:
                raise KeyError(f"operating point missing net {net!r}")
        for net, i in self.node_index.items():
            if net in op_voltages:
                x_ext[i] = op_voltages[net]
        return x_ext

    def _capacitances(self) -> np.ndarray:
        """The ``(k, size, size)`` C stacks, built on first use: the
        shared MOSFET part plus per-row capacitor values (the only
        matrix entries a placement changes)."""
        if self._C is None:
            t = self.topology
            k = self.k
            stride = self.size + 1
            C = np.broadcast_to(
                self._bank.c_mos_ext, (k, stride, stride)).copy()
            if t.capacitor_slots:
                cap_values = np.zeros((k, t.n_cap_slots))
                cap_values[:, t.capacitor_slot_index] = (
                    self._cap_rows if self._cap_rows is not None else [
                        [circuit.device(name).value
                         for name, __ in t.capacitor_slots]
                        for circuit in self.circuits])
                np.add.at(
                    C.reshape(-1), _row_indices(t, k).cap,
                    (t.cap_sign * cap_values[:, t.cap_slot]).reshape(-1),
                )
            self._C = np.ascontiguousarray(C[:, : self.size, : self.size])
        return self._C

    def _ac_drive(self) -> np.ndarray:
        """The ``(k, size)`` AC drive vectors, built on first use."""
        if self._b_ac is None:
            t = self.topology
            k = self.k
            stride = self.size + 1
            ac_values = np.array([
                [circuit.device(name).ac for name in t.source_names]
                for circuit in self.circuits
            ]).reshape(k, len(t.source_names))
            b_ac = np.zeros((k, stride))
            if t.ac_rows.size:
                np.add.at(
                    b_ac.reshape(-1), _row_indices(t, k).ac,
                    (t.ac_sign * ac_values[:, t.ac_slot]).reshape(-1),
                )
            self._b_ac = b_ac[:, : self.size].astype(complex)
        return self._b_ac

    def _arrays_rows(self, idx: np.ndarray) -> MosfetArrays:
        """The stacked device bank restricted to placement rows ``idx``.

        Only ``vth0`` and ``kp_wl`` vary by placement (variation deltas
        shift nothing else).
        """
        return self._bank.arrays(self._vth0[idx], self._kp_wl[idx])

    def _mos_jvals_rows(
        self, x_ext: np.ndarray, idx: np.ndarray, ri: _RowIndices
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`CompiledSystem._mos_jvals` at states ``(A, stride)``.

        Returns ``(ids, jvals)``: ``(A, n)`` currents and the flat
        Jacobian values that pair with ``ri.mos_j``.
        """
        block = terminal_currents_array(
            self._arrays_rows(idx),
            x_ext.reshape(-1)[ri.terms].reshape(4, len(idx), -1))
        g = block[1:]
        return block[0], np.concatenate((g, -g)).reshape(-1)

    def _source_injection(
        self,
        source_scale: float,
        source_values: Mapping[str, float] | None,
    ) -> np.ndarray:
        """Per-row :meth:`CompiledSystem._source_injections`, ``(k, m)``."""
        key = (source_scale, dict(source_values) if source_values else None)
        if key != self._src_key:
            self._src_injection = _signed_sources(
                self.topology, self._src_base, source_scale, source_values)
            self._src_key = key
        return self._src_injection

    # ------------------------------------------------------------------ DC

    def assemble_dc_batch(
        self,
        X: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        source_values: Mapping[str, float] | None = None,
        rows: np.ndarray | None = None,
        want_jacobian: bool = True,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Stacked Jacobians and residuals at states ``X`` of shape (A, size).

        ``rows`` selects the placement subset the states belong to (all
        placements by default) — the batched Newton driver shrinks the
        active set as placements converge.  Per-row semantics are exactly
        :meth:`CompiledSystem.assemble_dc`; ``want_jacobian=False`` skips
        the Jacobian scatter and returns ``(None, F)``, the residual-only
        form the frozen-Jacobian iterations use.
        """
        t = self.topology
        size = self.size
        idx = np.arange(self.k) if rows is None else np.asarray(rows, dtype=np.intp)
        n_active = len(idx)

        ws = self._dc_workspace.get(n_active)
        if ws is None:
            ws = (np.zeros((n_active, size + 1)),
                  np.empty((n_active, size + 1, size + 1)))
            self._dc_workspace[n_active] = ws
        x_ext, G_buf = ws
        ri = _row_indices(t, n_active)
        x_ext[:, :size] = X
        # The spill column of x_ext stays 0 (set at allocation, never
        # written), exactly as a fresh zeros() would give.
        if want_jacobian:
            # The Jacobian is returned to (and may be held by) the
            # caller, so it gets a fresh gather; F is formed from it
            # before the device stamps land, saving the second
            # (n, stride, stride) copy the old G→J_ext split paid.
            J_ext = np.take(self._G_ext, idx, axis=0)
            G = J_ext
        else:
            # Residual-only assembly: the linear matrix never escapes,
            # so the reusable workspace buffer serves as scratch.
            J_ext = None
            G = np.take(self._G_ext, idx, axis=0, out=G_buf)
        F_ext = (G @ x_ext[..., None])[..., 0]

        # Scatters go through flat views with per-active-size flat
        # indices: the same per-row sequence of additions as a 2-D index.
        F_flat = F_ext.reshape(-1)
        if t.src_rows.size:
            injection = self._source_injection(source_scale, source_values)
            np.add.at(F_flat, ri.src, injection[idx].reshape(-1))
        if t.mos_names:
            ids, jvals = self._mos_jvals_rows(x_ext, idx, ri)
            np.add.at(F_flat, ri.mos_f, np.concatenate((ids, -ids)).reshape(-1))
            if want_jacobian:
                np.add.at(J_ext.reshape(-1), ri.mos_j, jvals)
        F_ext[:, : self.n_nodes] += gmin * x_ext[:, : self.n_nodes]
        if not want_jacobian:
            return None, F_ext[:, :size]
        J_ext.reshape(-1)[ri.diag] += gmin
        return J_ext[:, :size, :size], F_ext[:, :size]

    # ------------------------------------------------------------------ AC

    def ac_matrices_batch(
        self,
        op_voltages_seq: Sequence[Mapping[str, float]],
        gmin: float = 1e-12,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-placement frequency-independent ``(G, C, b)`` stacks.

        ``op_voltages_seq`` supplies one DC bias mapping per placement.
        """
        if len(op_voltages_seq) != self.k:
            raise ValueError(
                f"need {self.k} operating points, got {len(op_voltages_seq)}"
            )
        t = self.topology
        size = self.size
        G_ext = self._G_ext.copy()
        if t.mos_names:
            x_ext = np.stack([
                self._op_vector_ext(op) for op in op_voltages_seq
            ])
            ri = _row_indices(t, self.k)
            __, jvals = self._mos_jvals_rows(x_ext, np.arange(self.k), ri)
            np.add.at(G_ext.reshape(-1), ri.mos_j, jvals)
        G_ext.reshape(self.k, -1)[:, t.node_diag_flat] += gmin
        return G_ext[:, :size, :size], self._capacitances(), self._ac_drive()

    def solve_ac_batch_many(
        self,
        op_voltages_seq: Sequence[Mapping[str, float]],
        omegas: np.ndarray,
        gmin: float = 1e-12,
    ) -> np.ndarray:
        """Solve all placements × frequencies in one stacked batch.

        Args:
            op_voltages_seq: one DC bias mapping per placement.
            omegas: angular frequencies [rad/s], shared by all placements.

        Returns:
            ``(k, nfreq, size)`` complex solutions.
        """
        G, C, b = self.ac_matrices_batch(op_voltages_seq, gmin=gmin)
        omegas = np.asarray(omegas, dtype=float)
        A = _ac_system(G, C, omegas)
        # The solve broadcasts each placement's right-hand side over the
        # frequencies; no stacked copy is made.
        start = perf_counter()
        X = np.linalg.solve(A, b[:, None, :, None])[..., 0]
        STATS.ac_solve_s += perf_counter() - start
        return X


def batched_system(
    circuits: Sequence[Circuit],
    tech: Technology,
    deltas_list: Sequence[Mapping[str, DeviceDelta] | None] | None = None,
) -> BatchedCompiledSystem:
    """Bind K same-shape circuit instances into one placement batch.

    All circuits must share a structure signature (every placement of a
    block does — parasitic capacitors change values only); the compiled
    topology is fetched from the global cache once.
    """
    circuits = list(circuits)
    if not circuits:
        raise ValueError("need at least one circuit to batch")
    topology = compiled_topology(circuits[0])
    signature = topology.signature
    for circuit in circuits[1:]:
        if structure_signature(circuit) != signature:
            raise ValueError(
                "cannot batch circuits with different structure signatures"
            )
    return BatchedCompiledSystem(topology, circuits, tech, deltas_list)


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
    X = X0.copy()
    n_rows = X.shape[0]
    n_nodes = bsys.n_nodes
    has_branches = bsys.size > n_nodes
    iters = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    active = np.arange(n_rows)
    J_frozen = np.empty((n_rows, bsys.size, bsys.size))
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
