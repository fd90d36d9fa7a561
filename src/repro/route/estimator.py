"""Wirelength estimation from placement geometry.

Net pins are taken at the centroids of the placeable devices attached to
the net (each MOSFET's units are already strapped together, so the
centroid is the natural pin abstraction).  Supply/ground rails are skipped
— they are distributed grids in a real layout, not routed point-to-point —
and nets touching fewer than two placeable devices contribute nothing.

Which devices pin which net is a property of the *circuit*, not the
placement, so it is derived once per circuit into a cached
:class:`NetPinPlan`; the per-placement hot path (one call per candidate
per evaluation) then only gathers device centroids — a single pass over
the placed units — and folds min/max per net.
"""

from __future__ import annotations

from operator import itemgetter
from weakref import WeakKeyDictionary

from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.netlist.nets import is_rail
from repro.tech import Technology


class NetPinPlan:
    """Placement-independent routing facts of one circuit.

    Attributes:
        nets: signal nets (non-rail, >= 2 placeable pins), in circuit
            net order.
        pins_by_net: every net → placeable device names pinning it, one
            entry per (device, port) attachment in device order.
    """

    def __init__(self, circuit: Circuit):
        attachments: dict[str, list[str]] = {}
        for device in circuit:
            placeable = device.is_placeable
            for port in device.PORTS:
                net = device.net(port)
                pins = attachments.setdefault(net, [])
                if placeable:
                    pins.append(device.name)
        self.pins_by_net: dict[str, tuple[str, ...]] = {
            net: tuple(pins) for net, pins in attachments.items()
        }
        self.nets: list[str] = [
            net for net, pins in self.pins_by_net.items()
            if not is_rail(net) and len(pins) >= 2
        ]
        # A device attached twice sits at one centroid, so each net's
        # bounding box reads its distinct devices only (a net on a single
        # device reads it twice: its HPWL is 0).
        self._net_pins = []
        for net in self.nets:
            devices = tuple(dict.fromkeys(self.pins_by_net[net]))
            if len(devices) == 1:
                devices *= 2
            self._net_pins.append((net, itemgetter(*devices)))

    def hpwls(
        self, centroids: dict[str, tuple[float, float]], pitch: float
    ) -> dict[str, float]:
        """HPWL of every signal net [m] given the device centroids."""
        xs = {}
        ys = {}
        for name, (c, r) in centroids.items():
            xs[name] = (c + 0.5) * pitch
            ys[name] = (r + 0.5) * pitch
        out = {}
        for net, pins in self._net_pins:
            px = pins(xs)
            py = pins(ys)
            out[net] = (max(px) - min(px)) + (max(py) - min(py))
        return out


_PLAN_CACHE: "WeakKeyDictionary[Circuit, NetPinPlan]" = WeakKeyDictionary()


def net_pin_plan(circuit: Circuit) -> NetPinPlan:
    """The (cached) pin plan of a circuit."""
    plan = _PLAN_CACHE.get(circuit)
    if plan is None:
        plan = NetPinPlan(circuit)
        _PLAN_CACHE[circuit] = plan
    return plan


def signal_nets(circuit: Circuit) -> list[str]:
    """Nets that the router would actually route between placeable devices."""
    return list(net_pin_plan(circuit).nets)


def net_hpwls(
    circuit: Circuit, placement: Placement, tech: Technology
) -> dict[str, float]:
    """HPWL of every signal net [m] from one centroid pass.

    Memoised on the placement: an evaluation reads it twice (parasitic
    annotation and the wirelength metric).
    """
    plan = net_pin_plan(circuit)
    pitch = tech.grid_pitch
    return dict(placement.cached(
        ("net_hpwls", plan, pitch),
        lambda: plan.hpwls(placement.device_centroids(), pitch)))


def total_wirelength(
    circuit: Circuit, placement: Placement, tech: Technology
) -> float:
    """Sum of HPWL over all signal nets [m]."""
    return sum(net_hpwls(circuit, placement, tech).values())
