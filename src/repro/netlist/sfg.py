"""Signal-flow-graph analysis for initial placement ordering.

The paper seeds its placements with a signal-flow graph: "For the initial
placement, we used signal flow graph to find relative placement location of
the groups" (Section III).  This module derives that ordering: devices are
levelled by their connectivity distance from the input nets (rails
excluded, so the bias network does not short everything together), groups
take the minimum level of their members, and the initial placer lays groups
out in level order.
"""

from __future__ import annotations

from collections import deque

from repro.netlist.circuit import Circuit
from repro.netlist.nets import is_rail
from repro.netlist.primitives import Group


def device_levels(circuit: Circuit, input_nets: tuple[str, ...]) -> dict[str, int]:
    """BFS level of each placeable device from the input nets.

    Levels count device hops: a device touching an input net is level 0,
    devices sharing a non-rail net with a level-0 device are level 1, etc.
    Devices unreachable without crossing a rail get a level one past the
    deepest reachable device (they are bias-like and belong at the edge).
    """
    if not input_nets:
        raise ValueError("need at least one input net")
    # Bipartite device/net adjacency (rails excluded); net hops come in
    # pairs, so device level = bipartite BFS distance // 2.
    graph: dict[str, list[str]] = {}
    for device in circuit.placeable():
        node = f"dev:{device.name}"
        graph.setdefault(node, [])
        for port in device.PORTS:
            net = device.net(port)
            if is_rail(net):
                continue
            graph[node].append(f"net:{net}")
            graph.setdefault(f"net:{net}", []).append(node)

    sources = [f"net:{n}" for n in input_nets if f"net:{n}" in graph]
    if not sources:
        raise ValueError(f"no input net of {input_nets} touches a placeable device")

    # Multi-source BFS: every source starts at distance 0.
    dist = dict.fromkeys(sources, 0)
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for nb in graph[node]:
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    lengths = {
        node[4:]: d // 2 for node, d in dist.items() if node.startswith("dev:")
    }

    deepest = max(lengths.values(), default=0)
    levels = {}
    for device in circuit.placeable():
        levels[device.name] = lengths.get(device.name, deepest + 1)
    return levels


def signal_flow_levels(
    circuit: Circuit, groups: tuple[Group, ...], input_nets: tuple[str, ...]
) -> dict[str, int]:
    """Level of each group = minimum level over its member devices."""
    dev_levels = device_levels(circuit, input_nets)
    return {
        group.name: min(dev_levels[name] for name in group.devices)
        for group in groups
    }


def signal_flow_order(
    circuit: Circuit, groups: tuple[Group, ...], input_nets: tuple[str, ...]
) -> list[Group]:
    """Groups sorted input-to-output (level, then name for determinism)."""
    levels = signal_flow_levels(circuit, groups, input_nets)
    return sorted(groups, key=lambda g: (levels[g.name], g.name))
