"""Reference modified-nodal-analysis assembler (per-device stamp loop).

The analyses run on :mod:`repro.sim.compiled`.  :class:`MnaSystem` is the
plain, readable statement of the same stamps — one Python branch per
device type, one matrix per frequency point — kept as the reference the
equivalence tests compare the compiled engine against.  Nothing on the
placement path imports this module.

Unknown vector layout: node voltages for every non-ground net (in circuit
net order), followed by one branch current per voltage-defined element
(voltage sources and VCVS).  Circuits in this library are small (tens of
nodes), so dense numpy assembly and ``numpy.linalg.solve`` beat any sparse
machinery.

Sign conventions (SPICE-compatible):

* KCL residual rows are "sum of currents *leaving* the node";
* a current source with ``dc > 0`` drives current from its ``p`` terminal
  through itself into ``n`` (so it *injects* into the external circuit at
  ``n``);
* a voltage-source branch current is the current flowing from ``p``
  through the source to ``n`` — a supply delivering power therefore shows
  a *negative* branch current.
"""

from __future__ import annotations

import dataclasses
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
from repro.sim.mosfet import device_caps, terminal_currents
from repro.tech import Technology
from repro.variation import DeviceDelta

#: Matrix index :meth:`MnaSystem.idx` reports for the ground node.
GROUND = -1


class MnaSystem:
    """Assembler bound to one circuit + technology + variation deltas.

    Args:
        circuit: the netlist (validated on construction).
        tech: technology providing nominal MOSFET parameters.
        deltas: per-device parameter perturbations from the variation
            model; device names absent from the mapping stay nominal.
    """

    def __init__(
        self,
        circuit: Circuit,
        tech: Technology,
        deltas: Mapping[str, DeviceDelta] | None = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.tech = tech
        self.deltas = dict(deltas or {})

        self.circuit_nets = circuit.nets()
        self.node_index: dict[str, int] = {}
        for net in self.circuit_nets:
            if not is_ground(net):
                self.node_index[net] = len(self.node_index)
        self.n_nodes = len(self.node_index)

        self.branch_index: dict[str, int] = {}
        for device in circuit:
            if isinstance(device, (VoltageSource, Vcvs)):
                self.branch_index[device.name] = self.n_nodes + len(self.branch_index)
        self.size = self.n_nodes + len(self.branch_index)

        self._mos_params = {}
        for m in circuit.mosfets():
            params = tech.params_for(m.polarity)
            delta = self.deltas.get(m.name)
            if delta is not None:
                params = params.with_deltas(dvth=delta.dvth, dbeta_rel=delta.dbeta_rel)
            self._mos_params[m.name] = params

    # ------------------------------------------------------------- helpers

    def idx(self, net: str) -> int:
        """Matrix index of a net (GROUND for the reference node)."""
        if is_ground(net):
            return GROUND
        return self.node_index[net]

    def voltage(self, x: np.ndarray, net: str) -> float:
        """Voltage of ``net`` under state vector ``x``."""
        i = self.idx(net)
        return 0.0 if i == GROUND else float(x[i])

    def _source_value(
        self, device, overrides: Mapping[str, float] | None
    ) -> float:
        if overrides and device.name in overrides:
            return overrides[device.name]
        return device.dc

    # ------------------------------------------------------------------ DC

    def rebind(
        self,
        deltas: Mapping[str, DeviceDelta] | None,
        capacitances: Sequence[float] | None = None,
    ) -> "MnaSystem":
        """The same circuit with new deltas and capacitor values (one per
        capacitor, in circuit order; ``None`` keeps them), as a new
        assembler — :meth:`repro.sim.compiled.CompiledSystem.rebind`."""
        circuit = self.circuit
        if capacitances is not None:
            caps = [d for d in circuit if isinstance(d, Capacitor)]
            circuit = circuit.copy_with(replacements={
                cap.name: dataclasses.replace(cap, value=value)
                for cap, value in zip(caps, capacitances)})
        return type(self)(circuit, self.tech, deltas)

    def assemble_dc(
        self,
        X: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        source_values: Sequence[Mapping[str, float] | None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked Jacobians and residuals at ``(rows, size)`` states,
        one :meth:`assemble_dc_row` call per row (``source_values``
        holds each row's overrides) — the interface of
        :meth:`repro.sim.compiled.CompiledSystem.assemble_dc`."""
        J = np.empty((len(X), self.size, self.size))
        F = np.empty((len(X), self.size))
        for i, x in enumerate(X):
            J[i], F[i] = self.assemble_dc_row(
                x, gmin, source_scale,
                None if source_values is None else source_values[i])
        return J, F

    def assemble_dc_row(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        source_values: Mapping[str, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian and residual of the DC system at state ``x``.

        Args:
            x: current iterate (node voltages + branch currents).
            gmin: conductance tied from every node to ground for
                convergence robustness.
            source_scale: multiplies every independent source value —
                the knob source-stepping homotopy turns.
            source_values: per-source dc overrides (name → value).

        Returns:
            ``(J, F)`` with ``J @ dx = -F`` being the Newton update system.
        """
        J = np.zeros((self.size, self.size))
        F = np.zeros(self.size)

        def add_j(i: int, j: int, val: float) -> None:
            if i != GROUND and j != GROUND:
                J[i, j] += val

        def add_f(i: int, val: float) -> None:
            if i != GROUND:
                F[i] += val

        for device in self.circuit:
            if isinstance(device, Resistor):
                a, b = self.idx(device.net("a")), self.idx(device.net("b"))
                g = 1.0 / device.value
                va = self.voltage(x, device.net("a"))
                vb = self.voltage(x, device.net("b"))
                add_j(a, a, g); add_j(a, b, -g)
                add_j(b, b, g); add_j(b, a, -g)
                add_f(a, g * (va - vb))
                add_f(b, g * (vb - va))
            elif isinstance(device, Capacitor):
                continue  # open circuit at DC
            elif isinstance(device, CurrentSource):
                value = self._source_value(device, source_values) * source_scale
                add_f(self.idx(device.net("p")), value)
                add_f(self.idx(device.net("n")), -value)
            elif isinstance(device, VoltageSource):
                row = self.branch_index[device.name]
                p, n = self.idx(device.net("p")), self.idx(device.net("n"))
                value = self._source_value(device, source_values) * source_scale
                vp = self.voltage(x, device.net("p"))
                vn = self.voltage(x, device.net("n"))
                i_branch = float(x[row])
                F[row] = vp - vn - value
                add_j(row, p, 1.0); add_j(row, n, -1.0)
                add_f(p, i_branch); add_j(p, row, 1.0)
                add_f(n, -i_branch); add_j(n, row, -1.0)
            elif isinstance(device, Vcvs):
                row = self.branch_index[device.name]
                p, n = self.idx(device.net("p")), self.idx(device.net("n"))
                cp, cn = self.idx(device.net("cp")), self.idx(device.net("cn"))
                vp = self.voltage(x, device.net("p"))
                vn = self.voltage(x, device.net("n"))
                vcp = self.voltage(x, device.net("cp"))
                vcn = self.voltage(x, device.net("cn"))
                i_branch = float(x[row])
                F[row] = vp - vn - device.gain * (vcp - vcn)
                add_j(row, p, 1.0); add_j(row, n, -1.0)
                add_j(row, cp, -device.gain); add_j(row, cn, device.gain)
                add_f(p, i_branch); add_j(p, row, 1.0)
                add_f(n, -i_branch); add_j(n, row, -1.0)
            elif isinstance(device, Mosfet):
                params = self._mos_params[device.name]
                nets = {t: device.net(t) for t in ("d", "g", "s", "b")}
                volts = {t: self.voltage(x, nets[t]) for t in nets}
                op = terminal_currents(
                    params, device.width, device.length,
                    volts["d"], volts["g"], volts["s"], volts["b"],
                )
                d, s = self.idx(nets["d"]), self.idx(nets["s"])
                partials = {
                    "d": op.gdd, "g": op.gdg, "s": op.gds_, "b": op.gdb,
                }
                add_f(d, op.ids)
                add_f(s, -op.ids)
                for term, dval in partials.items():
                    t = self.idx(nets[term])
                    add_j(d, t, dval)
                    add_j(s, t, -dval)
            else:
                raise TypeError(f"no DC stamp for device type {type(device).__name__}")

        for i in range(self.n_nodes):
            J[i, i] += gmin
            F[i] += gmin * x[i]
        return J, F

    # ------------------------------------------------------------------ AC

    def capacitance_matrix(self) -> np.ndarray:
        """Node-space capacitance matrix (branch rows/cols zero)."""
        C = np.zeros((self.size, self.size))

        def stamp(i: int, j: int, c: float) -> None:
            if i != GROUND:
                C[i, i] += c
            if j != GROUND:
                C[j, j] += c
            if i != GROUND and j != GROUND:
                C[i, j] -= c
                C[j, i] -= c

        for device in self.circuit:
            if isinstance(device, Capacitor):
                stamp(self.idx(device.net("a")), self.idx(device.net("b")), device.value)
            elif isinstance(device, Mosfet):
                caps = device_caps(
                    self._mos_params[device.name], device.width, device.length
                )
                d = self.idx(device.net("d"))
                g = self.idx(device.net("g"))
                s = self.idx(device.net("s"))
                b = self.idx(device.net("b"))
                stamp(g, s, caps.cgs)
                stamp(g, d, caps.cgd)
                stamp(d, b, caps.cdb)
                stamp(s, b, caps.csb)
        return C

    def assemble_ac(
        self, op_voltages: Mapping[str, float], omega: float, gmin: float = 1e-12
    ) -> tuple[np.ndarray, np.ndarray]:
        """Complex small-signal system ``A x = b`` at angular frequency ``omega``.

        Args:
            op_voltages: DC operating-point voltages by net name.  They may
                come from a *different* circuit variant (e.g. a closed-loop
                bias arrangement) as long as net names match — this is how
                open-loop AC at a closed-loop operating point is done.
            omega: angular frequency [rad/s].
            gmin: stabilising conductance to ground on every node.
        """
        A = np.zeros((self.size, self.size), dtype=complex)
        b = np.zeros(self.size, dtype=complex)

        def opv(net: str) -> float:
            if is_ground(net):
                return 0.0
            if net not in op_voltages:
                raise KeyError(f"operating point missing net {net!r}")
            return op_voltages[net]

        def add(i: int, j: int, val: complex) -> None:
            if i != GROUND and j != GROUND:
                A[i, j] += val

        for device in self.circuit:
            if isinstance(device, Resistor):
                a_, b_ = self.idx(device.net("a")), self.idx(device.net("b"))
                g = 1.0 / device.value
                add(a_, a_, g); add(a_, b_, -g)
                add(b_, b_, g); add(b_, a_, -g)
            elif isinstance(device, CurrentSource):
                if device.ac:
                    p, n = self.idx(device.net("p")), self.idx(device.net("n"))
                    if p != GROUND:
                        b[p] -= device.ac
                    if n != GROUND:
                        b[n] += device.ac
            elif isinstance(device, VoltageSource):
                row = self.branch_index[device.name]
                p, n = self.idx(device.net("p")), self.idx(device.net("n"))
                add(row, p, 1.0); add(row, n, -1.0)
                add(p, row, 1.0); add(n, row, -1.0)
                b[row] = device.ac
            elif isinstance(device, Vcvs):
                row = self.branch_index[device.name]
                p, n = self.idx(device.net("p")), self.idx(device.net("n"))
                cp, cn = self.idx(device.net("cp")), self.idx(device.net("cn"))
                add(row, p, 1.0); add(row, n, -1.0)
                add(row, cp, -device.gain); add(row, cn, device.gain)
                add(p, row, 1.0); add(n, row, -1.0)
            elif isinstance(device, Mosfet):
                params = self._mos_params[device.name]
                nets = {t: device.net(t) for t in ("d", "g", "s", "b")}
                op = terminal_currents(
                    params, device.width, device.length,
                    opv(nets["d"]), opv(nets["g"]), opv(nets["s"]), opv(nets["b"]),
                )
                d, s = self.idx(nets["d"]), self.idx(nets["s"])
                partials = {"d": op.gdd, "g": op.gdg, "s": op.gds_, "b": op.gdb}
                for term, dval in partials.items():
                    t = self.idx(nets[term])
                    add(d, t, dval)
                    add(s, t, -dval)
            elif isinstance(device, Capacitor):
                pass  # handled by the capacitance matrix below
            else:
                raise TypeError(f"no AC stamp for device type {type(device).__name__}")

        A += 1j * omega * self.capacitance_matrix()
        for i in range(self.n_nodes):
            A[i, i] += gmin
        return A, b

    def solve_ac_batch(
        self,
        op_voltages: Mapping[str, float],
        omegas: np.ndarray,
    ) -> np.ndarray:
        """Solve the AC system one frequency point at a time.

        Same signature and ``(nfreq, size)`` return shape as
        :meth:`repro.sim.compiled.CompiledSystem.solve_ac_batch`.
        """
        omegas = np.asarray(omegas, dtype=float)
        X = np.empty((len(omegas), self.size), dtype=complex)
        for k, omega in enumerate(omegas):
            A, b = self.assemble_ac(op_voltages, omega=float(omega))
            X[k] = np.linalg.solve(A, b)
        return X
