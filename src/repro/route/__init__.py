"""Routing-effect estimation.

The paper includes routing effects in simulation without optimizing the
routing; this package reproduces that: half-perimeter wirelength per
signal net from device centroids, turned into lumped parasitic capacitance
injected into the simulated netlist.
"""

from repro.route.estimator import (
    NetPinPlan,
    net_hpwls,
    net_pin_plan,
    signal_nets,
    total_wirelength,
)
from repro.route.parasitics import annotate_parasitics, parasitic_caps

__all__ = [
    "NetPinPlan",
    "annotate_parasitics",
    "net_hpwls",
    "net_pin_plan",
    "parasitic_caps",
    "signal_nets",
    "total_wirelength",
]
