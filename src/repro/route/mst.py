"""Minimum-spanning-tree wirelength — a tighter estimate than HPWL.

HPWL is exact for 2–3 pin nets but underestimates larger nets; the
rectilinear MST over pin positions is a standard refinement (within 1.5×
of the optimal Steiner tree).  The estimator plugs into the same
parasitic flow; experiments use HPWL by default (speed) and MST for
accuracy studies.
"""

from __future__ import annotations

from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.route.estimator import net_pin_positions, signal_nets
from repro.tech import Technology


def rectilinear_mst_length(pins: list[tuple[float, float]]) -> float:
    """Total Manhattan length of the MST over pin positions [m]."""
    if len(pins) < 2:
        return 0.0
    # Prim's algorithm on the complete graph: O(n^2), no heap needed.
    x0, y0 = pins[0]
    best = [abs(x - x0) + abs(y - y0) for x, y in pins[1:]]
    rest = list(pins[1:])
    total = 0.0
    while rest:
        i = min(range(len(rest)), key=best.__getitem__)
        total += best.pop(i)
        xi, yi = rest.pop(i)
        best = [
            min(b, abs(x - xi) + abs(y - yi)) for b, (x, y) in zip(best, rest)
        ]
    return float(total)


def net_mst(
    circuit: Circuit, placement: Placement, net: str, tech: Technology
) -> float:
    """Rectilinear MST wirelength of one net [m]."""
    return rectilinear_mst_length(
        net_pin_positions(circuit, placement, net, tech)
    )


def total_mst_wirelength(
    circuit: Circuit, placement: Placement, tech: Technology
) -> float:
    """Sum of MST wirelength over all signal nets [m]."""
    return sum(
        net_mst(circuit, placement, net, tech)
        for net in signal_nets(circuit)
    )
