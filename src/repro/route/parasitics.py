"""Routing parasitics: wirelength → lumped capacitance per signal net.

Each signal net receives a lumped capacitance to ground proportional to
its estimated wirelength (plus a floor for via/contact landing pads).
This reproduces the paper's protocol — routing effects are *included* in
every simulation but not *optimized* — and gives the FOM metrics
(bandwidth, delay, power) their placement dependence beyond pure LDEs.

:func:`parasitic_caps` gives the values, one per signal net in
:class:`~repro.route.estimator.NetPinPlan` order.  The evaluator's
testbenches (:mod:`repro.eval.suites`) carry one ``cpar_<net>``
capacitor per signal net from the start and bind these values per
placement; :func:`annotate_parasitics` appends the same capacitors to a
copy of a circuit (the reference the bench tests compare against).

Series resistance is deliberately left out of the lumped model: inserting
it would split nets and change the netlist topology between placements,
so one bench could no longer serve every placement of a block.  The
shape-level effect of resistive routing on the paper's metrics is
second-order next to the capacitive loading.
"""

from __future__ import annotations

from typing import Mapping

from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.netlist.devices import Capacitor
from repro.route.estimator import net_hpwls
from repro.tech import Technology

# Fixed per-net floor: contacts and landing pads exist even for abutted
# connections.
C_FLOOR = 0.05e-15


def parasitic_caps(
    circuit: Circuit, placement: Placement, tech: Technology
) -> dict[str, float]:
    """Estimated parasitic capacitance per signal net [F]."""
    return {
        net: C_FLOOR + tech.wire_cap_per_m * length
        for net, length in net_hpwls(circuit, placement, tech).items()
    }


def parasitic_capacitors(caps: Mapping[str, float]) -> list[Capacitor]:
    """One capacitor to ground per net of ``caps`` (net → value [F]).

    They are named ``cpar_<net>`` so they never collide with
    designer-named elements (device names are lowercase alnum only and
    the library reserves no ``cpar_`` prefix).
    """
    return [
        Capacitor(f"cpar_{net}", {"a": net, "b": "gnd"}, value=cap)
        for net, cap in caps.items()
    ]


def annotate_parasitics(
    circuit: Circuit, placement: Placement, tech: Technology
) -> Circuit:
    """A new circuit with the placement's parasitic capacitors appended
    (:func:`parasitic_capacitors` of :func:`parasitic_caps`)."""
    return circuit.copy_with(
        extra=parasitic_capacitors(parasitic_caps(circuit, placement, tech)))
