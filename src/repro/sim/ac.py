"""Small-signal AC analysis.

Linearizes every MOSFET at a supplied DC operating point and solves the
complex MNA system over a frequency grid.  The operating point is passed
as a plain net-name → voltage mapping, so it may come from a *different
circuit variant* than the one being AC-analysed — the standard trick for
open-loop AC at a closed-loop bias point (see
:mod:`repro.eval.measure_ota`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.nets import is_ground
from repro.sim.compiled import CompiledSystem, compiled_system
from repro.tech import Technology
from repro.variation import DeviceDelta


@dataclass
class AcResult:
    """Frequency response of every node.

    Attributes:
        freqs: analysis frequencies [Hz].
        node_voltages: complex response by net name, arrays aligned with
            ``freqs``.
    """

    freqs: np.ndarray
    node_voltages: dict[str, np.ndarray]

    def transfer(self, net: str) -> np.ndarray:
        """Complex response of one net (the AC drive has unit magnitude)."""
        if net not in self.node_voltages:
            raise KeyError(f"no net named {net!r} in AC result")
        return self.node_voltages[net]


def logspace_frequencies(f_start: float, f_stop: float, points_per_decade: int = 10) -> np.ndarray:
    """Logarithmic frequency grid, SPICE ``dec`` style."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    decades = math.log10(f_stop / f_start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(math.log10(f_start), math.log10(f_stop), n)


def solve_ac(
    circuit: Circuit,
    tech: Technology,
    op_voltages: Mapping[str, float],
    freqs: np.ndarray,
    deltas: Mapping[str, DeviceDelta] | None = None,
    system: CompiledSystem | None = None,
    nets: Sequence[str] | None = None,
) -> AcResult:
    """Solve the linearized system at each frequency.

    The frequency-independent ``G`` and ``C`` matrices are assembled once
    and every frequency point solves in a single stacked
    ``np.linalg.solve`` batch.

    Args:
        circuit: the AC testbench netlist (AC magnitudes set on sources).
        tech: technology for device models.
        op_voltages: DC bias voltages by net name; must cover every net a
            MOSFET terminal touches.
        freqs: frequency grid [Hz].
        deltas: variation-resolved device parameter shifts (must match the
            ones used for the operating point).
        system: prebuilt assembler for ``circuit`` — skips construction
            (the measurement suites cache one binding per testbench).
        nets: restrict response extraction to these nets (``None`` keeps
            every net).  The system is solved in full either way; this
            only trims the per-net response copies, so callers that read
            a single transfer (the measurement suites) skip the rest.
    """
    freqs = np.asarray(freqs, dtype=float)
    if system is None:
        system = compiled_system(circuit, tech, deltas)
    all_nets = circuit.nets() if nets is None else list(nets)
    X = system.solve_ac_batch(op_voltages, 2.0 * math.pi * freqs)
    out = {net: np.ascontiguousarray(X[:, system.node_index[net]])
           for net in all_nets if not is_ground(net)}
    for g in all_nets:
        if is_ground(g):
            out[g] = np.zeros(len(freqs), dtype=complex)
    return AcResult(freqs=freqs, node_voltages=out)
