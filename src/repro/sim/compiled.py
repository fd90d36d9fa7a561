"""Compiled MNA engine: circuit *structure* separated from *values*.

This is the simulator every analysis runs on.  An optimization loop
simulates thousands of placements of the *same* circuit, so walking the
device list in Python on every assembly — every Newton iteration, every
frequency point — would repeat identical structural work (validation,
node/branch numbering, stamp-location discovery) millions of times.

This module splits that work in two:

* :class:`CompiledTopology` — built **once per circuit shape** and cached
  globally.  It holds node/branch numbering and precomputed scatter index
  arrays (COO patterns flattened for ``np.add.at``) for every stamp the
  circuit will ever make: the linear conductance pattern, source
  injections, the capacitance pattern, and the per-MOSFET Jacobian
  footprint.  Placements only change *values* (parasitic capacitances,
  variation deltas, source levels), never structure, so one topology
  serves an entire optimization run.
* :class:`CompiledSystem` — a topology *bound* to one circuit instance,
  technology and variation-delta set.  Binding gathers the numeric values
  into flat arrays, and :meth:`CompiledSystem.rebind` swaps in another
  placement's deltas and capacitor values without gathering the rest
  again — or, given a list of delta sets, binds one *row* per placement
  (a placement batch, :mod:`repro.sim.batch`), sharing everything else.
  DC assembly runs on ``(rows, size)`` states (rows that differ only in
  their sources, or a batch's placements): a constant-matrix copy plus
  one fused MOSFET-bank kernel
  (:func:`repro.sim.mosfet.terminal_currents_array`) and three
  ``np.add.at`` scatters for all rows — no per-device Python dispatch —
  and AC analysis exposes the frequency-independent ``(G, C, b)`` triple
  so all frequency points (and a batch's rows) solve as one stacked
  ``np.linalg.solve`` batch.

Ground is handled with a *spill slot*: index arrays map ground to an extra
row/column ``size`` of an extended matrix which is sliced away after
scatter, so no stamp needs a conditional.

The per-device :class:`repro.sim.mna.MnaSystem` implements the same
assembler interface (``assemble_dc`` / ``solve_ac_batch`` and the
``node_index`` / ``branch_index`` / ``circuit_nets`` numbering); it is
the reference the equivalence tests compare this engine against and
is never loaded on the placement path.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.devices import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    Vcvs,
    VoltageSource,
)
from repro.netlist.nets import is_ground
from repro.sim.fastpath import STATS
from repro.sim.mosfet import (
    MosfetArrays,
    device_caps,
    terminal_currents_array,
)
from repro.tech import Technology
from repro.variation import DeviceDelta

# Slot 0 of the linear value vector is pinned to the constant 1.0 so that
# source-row / branch-current entries (always ±1) share the same
# sign * value[slot] scatter as resistor and VCVS entries.
_ONE_SLOT = 0

# Source-injection stacks a binding (and its rebound copies) keeps: the
# suites use a handful of (scale, overrides) keys, source stepping ten.
_INJECTIONS_KEPT = 32


def structure_signature(circuit: Circuit) -> tuple:
    """Hashable shape key of a circuit: device types, names and nets.

    Element *values* (R, C, source levels, variation deltas) are
    deliberately excluded — they are bound per solve, so all placements of
    a block (whose parasitic annotation changes capacitor values only)
    share one signature and therefore one compiled topology.  MOSFET
    geometry *is* part of the shape: the topology pre-bakes per-device
    parameter banks from it.
    """
    entries = []
    for device in circuit:
        entry: tuple = (type(device).__name__, device.name, device.nets)
        if isinstance(device, Mosfet):
            entry += (device.polarity, device.width, device.length)
        entries.append(entry)
    return (circuit.name, tuple(entries))


def _row_flat(entries: np.ndarray, n_rows: int, row_size: int) -> np.ndarray:
    """Flat index of ``entries`` in each of ``n_rows`` stacked rows.

    Row ``i``'s entry ``e`` lands at ``i * row_size + e``, in row-major
    order, so one 1-D ``np.add.at`` applies exactly the per-row additions,
    in the same order, that a ``(rows, entries)`` index would.
    """
    rows = np.arange(n_rows, dtype=np.intp)[:, None] * row_size
    return (rows + entries).reshape(-1)


class _RowIndices:
    """Flat (:func:`_row_flat`) scatter/gather indices of one topology's
    stamps over ``n_rows`` stacked rows (immutable, cached per topology)."""

    def __init__(self, topology: "CompiledTopology", n_rows: int):
        t = topology
        stride = t.size + 1
        self.lin = _row_flat(t.lin_flat, n_rows, stride * stride)
        self.cap = _row_flat(t.cap_flat, n_rows, stride * stride)
        self.ac = _row_flat(t.ac_rows, n_rows, stride)
        self.src = _row_flat(t.src_rows, n_rows, stride)
        # F rows of [ids at drains, -ids at sources], laid out like the
        # kernel's (2, row, device) current block.
        rows = np.arange(n_rows, dtype=np.intp)[None, :, None]
        self.mos_f = (rows * stride
                      + t.mos_f_rows.reshape(2, 1, -1)).reshape(-1)
        self.diag = _row_flat(t.node_diag_flat, n_rows, stride * stride)
        # The kernel's (terminal, row * device) input, and its partial
        # rows' (8, row, device) Jacobian layout.
        self.terms = (rows * stride + t.mos_terms[:, None, :]).reshape(4, -1)
        self.mos_j = (rows * (stride * stride)
                      + t.mos_j_flat.reshape(8, 1, -1)).reshape(-1)


def _row_indices(topology: "CompiledTopology", n_rows: int) -> _RowIndices:
    """``topology``'s flat stamp indices for ``n_rows`` stacked states
    (cached on the topology)."""
    indices = topology.row_indices.get(n_rows)
    if indices is None:
        indices = topology.row_indices[n_rows] = _RowIndices(topology, n_rows)
    return indices


class CompiledTopology:
    """Structure-only compilation of one circuit shape.

    Construction validates the circuit and computes every index array the
    bound system needs; it performs no numeric work.  Instances are
    immutable in practice and shared freely between bindings.
    """

    def __init__(self, circuit: Circuit):
        circuit.validate()
        self.signature = structure_signature(circuit)

        self.node_index: dict[str, int] = {}
        for net in circuit.nets():
            if not is_ground(net):
                self.node_index[net] = len(self.node_index)
        self.n_nodes = len(self.node_index)

        self.branch_index: dict[str, int] = {}
        for device in circuit:
            if isinstance(device, (VoltageSource, Vcvs)):
                self.branch_index[device.name] = self.n_nodes + len(self.branch_index)
        self.size = self.n_nodes + len(self.branch_index)

        spill = self.size          # ground lands here and is sliced away
        stride = self.size + 1     # row stride of the extended matrix

        def nidx(net: str) -> int:
            return spill if is_ground(net) else self.node_index[net]

        # Linear conductance pattern: entry value = sign * values[slot].
        lin_flat: list[int] = []
        lin_sign: list[float] = []
        lin_slot: list[int] = []
        self.resistor_slots: list[tuple[str, int]] = []
        self.vcvs_slots: list[tuple[str, int]] = []
        n_lin_slots = 1  # slot 0 = constant 1.0

        def lin(row: int, col: int, sign: float, slot: int) -> None:
            lin_flat.append(row * stride + col)
            lin_sign.append(sign)
            lin_slot.append(slot)

        # Independent-source injections (one value slot per source).
        self.source_names: list[str] = []
        src_rows: list[int] = []
        src_sign: list[float] = []
        src_slot: list[int] = []
        ac_rows: list[int] = []
        ac_sign: list[float] = []
        ac_slot: list[int] = []

        # Capacitance pattern: one slot per capacitor, four per MOSFET.
        cap_flat: list[int] = []
        cap_sign: list[float] = []
        cap_slot: list[int] = []
        self.capacitor_slots: list[tuple[str, int]] = []
        self.mos_cap_slots: list[tuple[str, int]] = []  # (name, base of 4)
        n_cap_slots = 0

        def cap_pair(i: int, j: int, slot: int) -> None:
            # stamp(): both diagonals unconditionally, off-diagonals only
            # when neither side is ground — the spill slot absorbs ground.
            cap_flat.extend((i * stride + i, j * stride + j,
                             i * stride + j, j * stride + i))
            cap_sign.extend((+1.0, +1.0, -1.0, -1.0))
            cap_slot.extend((slot, slot, slot, slot))

        # MOSFET bank.
        self.mos_names: list[str] = []
        self.mos_widths: list[float] = []
        self.mos_lengths: list[float] = []
        self.mos_polarity: list[int] = []
        self.mos_nets: list[str] = []  # non-ground nets MOS terminals touch
        mos_d: list[int] = []
        mos_g: list[int] = []
        mos_s: list[int] = []
        mos_b: list[int] = []

        for device in circuit:
            if isinstance(device, Resistor):
                slot = n_lin_slots
                n_lin_slots += 1
                self.resistor_slots.append((device.name, slot))
                a, b = nidx(device.net("a")), nidx(device.net("b"))
                lin(a, a, +1.0, slot); lin(a, b, -1.0, slot)
                lin(b, b, +1.0, slot); lin(b, a, -1.0, slot)
            elif isinstance(device, Capacitor):
                slot = n_cap_slots
                n_cap_slots += 1
                self.capacitor_slots.append((device.name, slot))
                cap_pair(nidx(device.net("a")), nidx(device.net("b")), slot)
            elif isinstance(device, CurrentSource):
                slot = len(self.source_names)
                self.source_names.append(device.name)
                p, n = nidx(device.net("p")), nidx(device.net("n"))
                src_rows.extend((p, n)); src_sign.extend((+1.0, -1.0))
                src_slot.extend((slot, slot))
                ac_rows.extend((p, n)); ac_sign.extend((-1.0, +1.0))
                ac_slot.extend((slot, slot))
            elif isinstance(device, VoltageSource):
                slot = len(self.source_names)
                self.source_names.append(device.name)
                row = self.branch_index[device.name]
                p, n = nidx(device.net("p")), nidx(device.net("n"))
                lin(row, p, +1.0, _ONE_SLOT); lin(row, n, -1.0, _ONE_SLOT)
                lin(p, row, +1.0, _ONE_SLOT); lin(n, row, -1.0, _ONE_SLOT)
                src_rows.append(row); src_sign.append(-1.0); src_slot.append(slot)
                ac_rows.append(row); ac_sign.append(+1.0); ac_slot.append(slot)
            elif isinstance(device, Vcvs):
                row = self.branch_index[device.name]
                p, n = nidx(device.net("p")), nidx(device.net("n"))
                cp, cn = nidx(device.net("cp")), nidx(device.net("cn"))
                gslot = n_lin_slots
                n_lin_slots += 1
                self.vcvs_slots.append((device.name, gslot))
                lin(row, p, +1.0, _ONE_SLOT); lin(row, n, -1.0, _ONE_SLOT)
                lin(row, cp, -1.0, gslot); lin(row, cn, +1.0, gslot)
                lin(p, row, +1.0, _ONE_SLOT); lin(n, row, -1.0, _ONE_SLOT)
            elif isinstance(device, Mosfet):
                self.mos_names.append(device.name)
                self.mos_widths.append(device.width)
                self.mos_lengths.append(device.length)
                self.mos_polarity.append(device.polarity)
                for term in ("d", "g", "s", "b"):
                    net = device.net(term)
                    if not is_ground(net) and net not in self.mos_nets:
                        self.mos_nets.append(net)
                mos_d.append(nidx(device.net("d")))
                mos_g.append(nidx(device.net("g")))
                mos_s.append(nidx(device.net("s")))
                mos_b.append(nidx(device.net("b")))
                slot = n_cap_slots
                n_cap_slots += 4
                self.mos_cap_slots.append((device.name, slot))
                d, g, s, b = mos_d[-1], mos_g[-1], mos_s[-1], mos_b[-1]
                cap_pair(g, s, slot)          # cgs
                cap_pair(g, d, slot + 1)      # cgd
                cap_pair(d, b, slot + 2)      # cdb
                cap_pair(s, b, slot + 3)      # csb
            else:
                raise TypeError(
                    f"no compiled stamp for device type {type(device).__name__}"
                )

        self.capacitor_slot_index = np.array(
            [slot for __, slot in self.capacitor_slots], dtype=np.intp)
        # All nets including ground, in first-touch order: circuits sharing
        # a signature share this too (net order derives from device order).
        self.circuit_nets = circuit.nets()
        self.n_lin_slots = n_lin_slots
        self.n_cap_slots = n_cap_slots
        self.lin_flat = np.asarray(lin_flat, dtype=np.intp)
        self.lin_sign = np.asarray(lin_sign)
        self.lin_slot = np.asarray(lin_slot, dtype=np.intp)
        self.src_rows = np.asarray(src_rows, dtype=np.intp)
        self.src_sign = np.asarray(src_sign)
        self.src_slot = np.asarray(src_slot, dtype=np.intp)
        self.ac_rows = np.asarray(ac_rows, dtype=np.intp)
        self.ac_sign = np.asarray(ac_sign)
        self.ac_slot = np.asarray(ac_slot, dtype=np.intp)
        self.cap_flat = np.asarray(cap_flat, dtype=np.intp)
        self.cap_sign = np.asarray(cap_sign)
        self.cap_slot = np.asarray(cap_slot, dtype=np.intp)

        # Terminal gather index: row t holds every device's terminal-t
        # node, so one fancy index yields the kernel's (4, n) input.
        terms = np.array([mos_d, mos_g, mos_s, mos_b], dtype=np.intp)
        terms = terms.reshape(4, len(self.mos_names))
        d, s = terms[0], terms[2]
        self.mos_terms = terms
        # F rows for [ids at drains, -ids at sources].
        self.mos_f_rows = np.concatenate((d, s))
        # J footprint: add_j(d, t, +gt) and add_j(s, t, -gt) for each
        # terminal t in (d, g, s, b) — eight entries per device, laid out
        # like the kernel's partial rows followed by their negation.
        self.mos_j_flat = np.concatenate(
            (d * stride + terms, s * stride + terms)).ravel()
        nodes = np.arange(self.n_nodes, dtype=np.intp)
        self.node_diag_flat = nodes * stride + nodes

        self._banks: dict[Technology, _DeviceBank] = {}
        #: Stacked-state index arrays per row count (:func:`_row_indices`).
        self.row_indices: dict[int, _RowIndices] = {}

    def device_bank(self, tech: Technology) -> "_DeviceBank":
        """Nominal per-device parameter bank under one technology (cached).

        Variation deltas shift ``vth0`` and scale ``kp`` only, so
        everything else — including the MOSFET capacitance matrix — is
        computed here once and shared by every binding.
        """
        bank = self._banks.get(tech)
        if bank is None:
            bank = _DeviceBank(self, tech)
            self._banks[tech] = bank
        return bank

    def bind(
        self,
        circuit: Circuit,
        tech: Technology,
        deltas: Mapping[str, DeviceDelta] | None = None,
    ) -> "CompiledSystem":
        """Bind this topology to one circuit instance's values."""
        return CompiledSystem(self, circuit, tech, deltas)


class _DeviceBank:
    """Nominal MOSFET parameter vectors of one topology × technology."""

    def __init__(self, topology: CompiledTopology, tech: Technology):
        params = [tech.params_for(p) for p in topology.mos_polarity]
        widths = np.asarray(topology.mos_widths, dtype=float)
        lengths = np.asarray(topology.mos_lengths, dtype=float)
        self.polarity = np.array([float(p.polarity) for p in params])
        self.vth0 = np.array([p.vth0 for p in params])
        self.kp = np.array([p.kp for p in params])
        self.w_over_l = widths / lengths
        self.lam = np.array(
            [p.lam_at(l) for p, l in zip(params, lengths)]
        )
        self.gamma = np.array([p.gamma for p in params])
        self.phi = np.array([p.phi for p in params])
        self.ss = np.array([p.subthreshold_slope for p in params])
        self.sqrt_phi = np.sqrt(self.phi)
        self.neg_half_gamma = -self.gamma / 2.0

        # Deltas never touch the capacitance coefficients, so the whole
        # MOSFET contribution to the C matrix is fixed per technology.
        stride = topology.size + 1
        cap_values = np.zeros(topology.n_cap_slots)
        for (name, slot), p, w, l in zip(
            topology.mos_cap_slots, params, widths, lengths
        ):
            caps = device_caps(p, w, l)
            cap_values[slot: slot + 4] = (caps.cgs, caps.cgd, caps.cdb, caps.csb)
        C = np.zeros((stride, stride))
        # Capacitor-device slots hold zeros here, so scattering the full
        # pattern stamps exactly the MOSFET contribution.
        if topology.cap_flat.size:
            np.add.at(
                C.ravel(), topology.cap_flat,
                topology.cap_sign * cap_values[topology.cap_slot],
            )
        self.c_mos_ext = C

        self._stacked: dict[tuple, dict[str, np.ndarray]] = {
            self.vth0.shape: {name: getattr(self, name) for name in (
                "polarity", "lam", "gamma", "phi", "ss", "sqrt_phi",
                "neg_half_gamma")},
        }

    def arrays(self, vth0: np.ndarray, kp_wl: np.ndarray) -> MosfetArrays:
        """The kernel's parameter vectors with variation-resolved
        ``vth0`` and ``kp_wl``.

        ``vth0`` and ``kp_wl`` may hold several copies of the bank: as
        ``(rows, n)`` stacks or as flat ``(rows * n,)`` vectors.  The
        shared vectors then come repeated to the same shape (cached per
        shape), so every kernel operation runs one contiguous loop
        instead of one per row.
        """
        shared = self._stacked.get(vth0.shape)
        if shared is None:
            shared = self._stacked[vth0.shape] = {
                name: np.resize(value, vth0.shape)
                for name, value in self._stacked[self.vth0.shape].items()
            }
        return MosfetArrays(vth0=vth0, kp_wl=kp_wl, **shared)


def _delta_arrays(
    names: Sequence[str],
    deltas_list: Sequence[Mapping[str, DeviceDelta] | None],
) -> tuple[np.ndarray, np.ndarray]:
    """``(dvth, dbeta_rel)`` stacks, one row per delta set, in bank order.

    Devices absent from a delta set (or a ``None`` set) stay nominal.

    Raises:
        ValueError: a ``dbeta_rel <= -1`` would make a device's ``kp``
            non-positive (the check :meth:`MosfetParams.with_deltas`
            makes per device).
    """
    dvth: list[float] = []
    dbeta: list[float] = []
    for deltas in deltas_list:
        for name in names:
            delta = deltas.get(name) if deltas else None
            if delta is None:
                dvth.append(0.0)
                dbeta.append(0.0)
                continue
            if delta.dbeta_rel <= -1.0:
                raise ValueError(
                    f"{name}: dbeta_rel would make kp non-positive: "
                    f"{delta.dbeta_rel}"
                )
            dvth.append(delta.dvth)
            dbeta.append(delta.dbeta_rel)
    shape = (len(deltas_list), len(names))
    return (np.array(dvth, dtype=float).reshape(shape),
            np.array(dbeta, dtype=float).reshape(shape))


def _signed_sources(
    topology: CompiledTopology,
    base: np.ndarray,
    source_scale: float,
    source_values: Mapping[str, float] | None,
) -> np.ndarray:
    """Source injections aligned with ``topology.src_rows``.

    ``base`` holds the sources' dc levels; ``source_values`` overrides
    some of them and ``source_scale`` scales them all.
    """
    values = base
    if source_values:
        values = values.copy()
        for i, name in enumerate(topology.source_names):
            if name in source_values:
                values[i] = source_values[name]
    values = values * source_scale
    return topology.src_sign * values[topology.src_slot]


class CompiledSystem:
    """A compiled topology bound to concrete element values.

    The circuit handed in must have the same structure signature as the
    topology (guaranteed when obtained via :func:`compiled_system`).
    Binding gathers only what DC assembly reads; the AC drive vector and
    the capacitance matrix are built on first use.  :meth:`rebind` gives
    the same circuit new variation deltas and capacitor values without
    gathering anything else again.

    A binding holds one parameter set, or — rebound with a list of delta
    sets — one *row* per set (``rows`` is then their count, else
    ``None``): a placement batch of one testbench.  A rows binding's
    states carry the row each one belongs to (``active`` in
    :meth:`assemble_dc`), and its AC matrices gain a leading row axis.

    Raises:
        ValueError: a variation delta would make a device's ``kp``
            non-positive.
    """

    def __init__(
        self,
        topology: CompiledTopology,
        circuit: Circuit,
        tech: Technology,
        deltas: Mapping[str, DeviceDelta] | None = None,
    ):
        self.topology = topology
        self.circuit = circuit
        self.tech = tech
        self.node_index = topology.node_index
        self.branch_index = topology.branch_index
        self.circuit_nets = topology.circuit_nets
        self.n_nodes = topology.n_nodes
        self.size = topology.size

        t = topology
        stride = self.size + 1

        # Linear conductance matrix (extended by the ground spill slot).
        values = np.ones(t.n_lin_slots)
        for name, slot in t.resistor_slots:
            values[slot] = 1.0 / circuit.device(name).value
        for name, slot in t.vcvs_slots:
            values[slot] = circuit.device(name).gain
        G = np.zeros((stride, stride))
        if t.lin_flat.size:
            np.add.at(G.ravel(), t.lin_flat, t.lin_sign * values[t.lin_slot])
        self._G_ext = G

        # Source-dependent pieces are built on first use.  DC assembly
        # keeps the injection stacks it has made, keyed by source scale
        # and per-row overrides (a Newton run reuses one on every
        # iteration); rebound copies share the store.
        self._src_base: np.ndarray | None = None
        self._injections: dict[tuple, np.ndarray] = {}
        self._b_ac: np.ndarray | None = None
        self._cap_values: Sequence | None = None
        self._C: np.ndarray | None = None
        self._bank = topology.device_bank(tech)
        self._bind_deltas(deltas)

    def _bind_deltas(
        self,
        deltas: Mapping[str, DeviceDelta] | list | None,
    ) -> None:
        """Variation-resolved MOSFET parameters: the cached nominal bank
        plus per-device delta arrays (dvth adds, dbeta scales kp —
        exactly :meth:`MosfetParams.with_deltas`, vectorized).  A list of
        delta sets binds ``(rows, n_mos)`` stacks, one row per set."""
        bank = self._bank
        if isinstance(deltas, list):
            self.deltas = deltas
            self.rows = len(deltas)
            dvth, dbeta = _delta_arrays(self.topology.mos_names, deltas)
            self._vth0 = bank.vth0 + dvth
            self._kp_wl = (bank.kp * (1.0 + dbeta)) * bank.w_over_l
            self._mos_arrays = None
            self._mos_rows = {self.rows: bank.arrays(
                self._vth0.reshape(-1), self._kp_wl.reshape(-1))}
            return
        self.rows = None
        self.deltas = dict(deltas or {})
        if self.deltas:
            dvth, dbeta = _delta_arrays(self.topology.mos_names, [self.deltas])
            vth0 = bank.vth0 + dvth[0]
            kp = bank.kp * (1.0 + dbeta[0])
        else:
            vth0 = bank.vth0
            kp = bank.kp
        self._mos_arrays = bank.arrays(vth0, kp * bank.w_over_l)
        # The kernel's vectors repeated for n-row states, by row count.
        self._mos_rows = {1: self._mos_arrays}

    def _mos_arrays_rows(
        self, rows: int, active: np.ndarray | None = None
    ) -> MosfetArrays:
        """The device bank of ``rows`` states, flat: the kernel runs on
        ``(4, rows * n)`` terminal voltages, the fastest layout.

        One parameter set is repeated for every state; a rows binding
        gives the states its rows ``active`` (all of them by default).
        """
        if active is not None:
            return self._bank.arrays(self._vth0[active].reshape(-1),
                                     self._kp_wl[active].reshape(-1))
        arrays = self._mos_rows.get(rows)
        if arrays is None:
            one = self._mos_arrays
            arrays = self._mos_rows[rows] = self._bank.arrays(
                np.concatenate((one.vth0,) * rows),
                np.concatenate((one.kp_wl,) * rows))
        return arrays

    def rebind(
        self,
        deltas: Mapping[str, DeviceDelta] | list | None,
        capacitances: Sequence | None = None,
    ) -> "CompiledSystem":
        """This binding with new variation deltas and capacitor values.

        A placement changes only these two, so a testbench is bound once
        and rebound per placement: the linear matrix, the source levels
        and the AC drive are shared with this binding (the last two are
        built here, on this binding, the first time it is rebound).  A
        *list* of delta sets binds one row per set — a placement batch —
        and ``capacitances`` then holds one value list per row.

        Args:
            deltas: the new per-device parameter shifts, or a list of
                them.
            capacitances: one value per capacitor of the circuit, in
                circuit order (per row for a list of delta sets);
                ``None`` keeps this binding's values, or takes the
                circuit's own when the binding's row count changes.
        """
        self._source_levels()
        self._ac_drive()
        bound = copy.copy(self)
        bound._bind_deltas(deltas)
        if capacitances is not None or bound.rows != self.rows:
            bound._cap_values = capacitances
            bound._C = None
        return bound

    # ------------------------------------------------------------- helpers

    def _source_levels(self) -> np.ndarray:
        """The independent sources' dc values in topology order, built
        on first use."""
        if self._src_base is None:
            self._src_base = np.array([
                self.circuit.device(name).dc
                for name in self.topology.source_names])
        return self._src_base

    def _source_injections(
        self,
        source_scale: float,
        source_values: Sequence[Mapping[str, float] | None] | None,
        rows: int,
    ) -> np.ndarray:
        """Signed source values of ``rows`` states (``source_values``
        holds each row's overrides), row after row, each aligned with the
        topology's ``src_rows``."""
        if source_values is None or not any(source_values):
            key = (source_scale, rows)
            source_values = (None,) * rows
        else:
            key = (source_scale, tuple(
                tuple(values.items()) if values else None
                for values in source_values))
        injections = self._injections.get(key)
        if injections is None:
            injections = np.concatenate([
                _signed_sources(self.topology, self._source_levels(),
                                source_scale, values)
                for values in source_values])
            if len(self._injections) >= _INJECTIONS_KEPT:
                self._injections.clear()
            self._injections[key] = injections
        return injections

    # ------------------------------------------------------------------ DC

    def assemble_dc(
        self,
        X: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        source_values: Sequence[Mapping[str, float] | None] | None = None,
        active: np.ndarray | None = None,
        want_jacobian: bool = True,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Jacobians and residuals of the DC system at the states ``X``.

        Args:
            X: ``(rows, size)`` states, each solved on this binding.
            gmin: conductance tied from every node to ground.
            source_scale: multiplies every independent source value.
            source_values: per-row source dc overrides (name → value),
                one entry (or ``None``) per row; ``None`` for none.
            active: on a rows binding, the binding row of each state
                (every row, in order, by default).
            want_jacobian: ``False`` skips the Jacobian and returns
                ``(None, F)`` — the same ``F``, for the batched Newton's
                frozen-Jacobian iterations.

        Returns:
            ``(J, F)`` of shapes ``(rows, size, size)`` and ``(rows,
            size)``.  Assembly is one matrix copy, one fused device-bank
            kernel and three index scatters for all rows; each row's
            values are those of a one-row call (``F`` is formed per row
            as a matrix-vector product).
        """
        t = self.topology
        rows, size = X.shape
        ri = _row_indices(t, rows)
        x_ext = np.zeros((rows, size + 1))
        x_ext[:, :size] = X

        G = self._G_ext
        if want_jacobian:
            J_ext = np.empty((rows,) + G.shape)
            J_ext[:] = G
            J_flat = J_ext.reshape(-1)
        F_ext = (G[None] @ x_ext[..., None])[..., 0]
        F_flat = F_ext.reshape(-1)
        if t.src_rows.size:
            np.add.at(F_flat, ri.src, self._source_injections(
                source_scale, source_values, rows))
        if t.mos_names:
            block = terminal_currents_array(
                self._mos_arrays_rows(rows, active),
                x_ext.reshape(-1)[ri.terms])
            ids, g = block[0], block[1:]
            np.add.at(F_flat, ri.mos_f, np.concatenate((ids, -ids)))
            if want_jacobian:
                np.add.at(J_flat, ri.mos_j,
                          np.concatenate((g, -g)).reshape(-1))
        F_ext[:, : self.n_nodes] += gmin * x_ext[:, : self.n_nodes]
        if not want_jacobian:
            return None, F_ext[:, :size]
        J_flat[ri.diag] += gmin
        return J_ext[:, :size, :size], F_ext[:, :size]

    # ------------------------------------------------------------------ AC

    def _capacitances(self) -> np.ndarray:
        """The node-space C matrix (one per row of a rows binding),
        built on first use.

        Deltas never change capacitances: it is the cached MOSFET part
        plus this binding's capacitor values.
        """
        if self._C is None:
            t = self.topology
            c_mos = self._bank.c_mos_ext
            if self._cap_values is None and t.capacitor_slots:
                self._cap_values = [self.circuit.device(name).value
                                    for name, __ in t.capacitor_slots]
            if self.rows is None:
                C = c_mos.copy()
                if t.capacitor_slots:
                    cap_values = np.zeros(t.n_cap_slots)
                    cap_values[t.capacitor_slot_index] = self._cap_values
                    np.add.at(C.ravel(), t.cap_flat,
                              t.cap_sign * cap_values[t.cap_slot])
            else:
                C = np.repeat(c_mos[None], self.rows, axis=0)
                if t.capacitor_slots:
                    cap_values = np.zeros((self.rows, t.n_cap_slots))
                    cap_values[:, t.capacitor_slot_index] = self._cap_values
                    np.add.at(C.reshape(-1), _row_indices(t, self.rows).cap,
                              (t.cap_sign * cap_values[:, t.cap_slot]).ravel())
            self._C = C[..., : self.size, : self.size].copy()
        return self._C

    def _ac_drive(self) -> np.ndarray:
        """The constant AC drive vector, built on first use."""
        if self._b_ac is None:
            t = self.topology
            ac_values = np.array(
                [self.circuit.device(name).ac for name in t.source_names]
            )
            b_ac = np.zeros(self.size + 1)
            if t.ac_rows.size:
                np.add.at(b_ac, t.ac_rows, t.ac_sign * ac_values[t.ac_slot])
            self._b_ac = b_ac[: self.size].astype(complex)
        return self._b_ac

    def _op_vector_ext(self, op_voltages: Mapping[str, float]) -> np.ndarray:
        x_ext = np.zeros(self.size + 1)
        for net in self.topology.mos_nets:
            if net not in op_voltages:
                raise KeyError(f"operating point missing net {net!r}")
        for net, i in self.node_index.items():
            if net in op_voltages:
                x_ext[i] = op_voltages[net]
        return x_ext

    def ac_matrices(
        self,
        op_voltages: Mapping[str, float] | Sequence[Mapping[str, float]],
        gmin: float = 1e-12,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frequency-independent pieces of the AC system.

        Returns ``(G, C, b)`` with ``A(omega) = G + 1j * omega * C``; one
        call serves every frequency point of an analysis.  A rows binding
        takes one bias mapping per row, and its ``G`` and ``C`` gain a
        leading row axis (the drive ``b`` is shared).
        """
        t = self.topology
        if self.rows is None:
            x_ext = self._op_vector_ext(op_voltages)
            G_ext = self._G_ext.copy()
            arrays, terms = self._mos_arrays, t.mos_terms
            mos_j, diag = t.mos_j_flat, t.node_diag_flat
        else:
            if len(op_voltages) != self.rows:
                raise ValueError(
                    f"need {self.rows} operating points, "
                    f"got {len(op_voltages)}")
            x_ext = np.stack([self._op_vector_ext(op) for op in op_voltages])
            G_ext = np.repeat(self._G_ext[None], self.rows, axis=0)
            ri = _row_indices(t, self.rows)
            arrays, terms, mos_j, diag = (
                self._mos_arrays_rows(self.rows), ri.terms, ri.mos_j, ri.diag)
        G_flat = G_ext.reshape(-1)
        if t.mos_names:
            g = terminal_currents_array(arrays, x_ext.reshape(-1)[terms])[1:]
            np.add.at(G_flat, mos_j, np.concatenate((g, -g)).reshape(-1))
        G_flat[diag] += gmin
        G = G_ext[..., : self.size, : self.size]
        return G, self._capacitances(), self._ac_drive()

    def solve_ac_batch(
        self,
        op_voltages: Mapping[str, float] | Sequence[Mapping[str, float]],
        omegas: np.ndarray,
        gmin: float = 1e-12,
    ) -> np.ndarray:
        """Solve the AC system at every angular frequency in one batch.

        Args:
            op_voltages: DC bias by net name (one per row of a rows
                binding).
            omegas: angular frequencies [rad/s].

        Returns:
            ``(nfreq, size)`` complex solutions (``(rows, nfreq, size)``
            on a rows binding).
        """
        G, C, b = self.ac_matrices(op_voltages, gmin=gmin)
        omegas = np.asarray(omegas, dtype=float)
        A = _ac_system(G, C, omegas)
        # The solve broadcasts the one right-hand side over every row and
        # frequency; no stacked copy is made.
        start = perf_counter()
        X = np.linalg.solve(A, b[None, :, None])[..., 0]
        STATS.ac_solve_s += perf_counter() - start
        return X


def _ac_system(G: np.ndarray, C: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """``A = G + 1j * omega * C`` for every ``omega``, on the axis before
    the matrix axes (``G``/``C`` may carry a leading placement axis).

    The real and imaginary planes are filled directly: the same values as
    the complex expression (``G`` and ``C`` are sums started from +0, so
    neither holds a -0 the complex product could flip), without its
    complex temporaries.
    """
    A = np.empty(G.shape[:-2] + (len(omegas),) + G.shape[-2:], dtype=complex)
    A.real[...] = G[..., None, :, :]
    np.multiply(omegas[:, None, None], C[..., None, :, :], out=A.imag)
    return A


# -------------------------------------------------------- topology cache

_TOPOLOGY_CACHE: "OrderedDict[tuple, CompiledTopology]" = OrderedDict()
_TOPOLOGY_CACHE_MAX = 256
_cache_hits = 0
_cache_misses = 0


def compiled_topology(circuit: Circuit) -> CompiledTopology:
    """The compiled topology of ``circuit``'s shape (globally LRU-cached).

    Every placement of a block — parasitic capacitors included — shares
    a structure signature, so a process compiles each testbench variant
    exactly once, and each evaluator fetches it once per testbench.
    """
    global _cache_hits, _cache_misses
    signature = structure_signature(circuit)
    topology = _TOPOLOGY_CACHE.get(signature)
    if topology is not None:
        _cache_hits += 1
        _TOPOLOGY_CACHE.move_to_end(signature)
        return topology
    _cache_misses += 1
    topology = CompiledTopology(circuit)
    if len(_TOPOLOGY_CACHE) >= _TOPOLOGY_CACHE_MAX:
        _TOPOLOGY_CACHE.popitem(last=False)
    _TOPOLOGY_CACHE[signature] = topology
    return topology


def compiled_system(
    circuit: Circuit,
    tech: Technology,
    deltas: Mapping[str, DeviceDelta] | None = None,
) -> CompiledSystem:
    """A value-bound compiled system (topology fetched from the cache)."""
    return compiled_topology(circuit).bind(circuit, tech, deltas)


def topology_cache_info() -> dict[str, int]:
    """Cache statistics: ``{"size": ..., "hits": ..., "misses": ...}``."""
    return {
        "size": len(_TOPOLOGY_CACHE),
        "hits": _cache_hits,
        "misses": _cache_misses,
    }


def clear_topology_cache() -> None:
    """Drop all cached topologies and zero the hit/miss counters."""
    global _cache_hits, _cache_misses
    _TOPOLOGY_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0
