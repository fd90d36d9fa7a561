"""Placement generators: sequential (SFG-seeded), Y-symmetric, common-centroid.

Three generators share one banded skeleton — groups are stacked in
signal-flow order as horizontal bands, exactly as the paper seeds its
optimizer ("we used signal flow graph to find relative placement location
of the groups; units within a group were placed sequentially") — and
differ only in how units are arranged *within* a band:

* ``sequential`` — device after device, row-major (the RL/SA start point);
* ``ysym`` — matched devices mirrored about the vertical axis, paper
  Fig. 1(b), the MAGICAL-style baseline;
* ``common_centroid`` — interdigitated ABBA patterns with serpentine rows,
  paper Fig. 1(c), the X+Y-symmetric baseline.
"""

from __future__ import annotations

import math

from repro.layout.placement import CanvasSpec, Placement
from repro.netlist.library import AnalogBlock
from repro.netlist.sfg import signal_flow_order

STYLES = ("sequential", "ysym", "common_centroid")


def _ysym_device_order(devices: tuple[str, ...]) -> list[str]:
    """Mirror-friendly device order: odd leader centred, pairs split."""
    if len(devices) % 2 == 1:
        mid, rest = [devices[0]], list(devices[1:])
    else:
        mid, rest = [], list(devices)
    left: list[str] = []
    right: list[str] = []
    for i, name in enumerate(rest):
        (left if i % 2 == 0 else right).append(name)
    return left + mid + list(reversed(right))


def _slot_sequence(block: AnalogBlock, group_devices: tuple[str, ...], style: str) -> list[str]:
    """Device label per unit slot, group-local, according to style."""
    units_of = {
        name: block.circuit.device(name).n_units for name in group_devices
    }
    if style == "sequential":
        return [name for name in group_devices for __ in range(units_of[name])]
    if style == "ysym":
        order = _ysym_device_order(group_devices)
        return [name for name in order for __ in range(units_of[name])]
    if style == "common_centroid":
        # Interleave one unit per device per pass, alternating direction:
        # for a pair with 4 units each this yields A B B A A B B A.
        max_units = max(units_of.values())
        sequence: list[str] = []
        remaining = dict(units_of)
        for pass_idx in range(max_units):
            order = list(group_devices) if pass_idx % 2 == 0 else list(reversed(group_devices))
            for name in order:
                if remaining[name] > 0:
                    sequence.append(name)
                    remaining[name] -= 1
        return sequence
    raise ValueError(f"unknown style {style!r}; choose from {STYLES}")


def _chunk_balanced(n: int, width: int) -> list[int]:
    """Split ``n`` slots into rows no wider than ``width``, balanced."""
    n_rows = math.ceil(n / width)
    base = n // n_rows
    extra = n % n_rows
    return [base + (1 if i < extra else 0) for i in range(n_rows)]


def banded_placement(
    block: AnalogBlock, style: str = "sequential", gap_rows: int = 1
) -> Placement:
    """Generate a legal banded placement of ``block`` in the given style.

    Groups become horizontal bands in signal-flow order (inputs at the
    top); rows inside a band are centred so every group is connected under
    4- and 8-adjacency alike.  ``gap_rows`` empty rows separate adjacent
    bands — the signal-flow seed fixes *relative* locations, not abutment,
    and the slack is what gives the optimizer legal unit moves to explore.

    Raises:
        ValueError: if the canvas cannot hold the block's bands or the
            style is unknown.
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; choose from {STYLES}")
    if gap_rows < 0:
        raise ValueError(f"gap_rows cannot be negative, got {gap_rows}")
    cols, rows = block.canvas
    canvas = CanvasSpec(cols, rows)
    placement = Placement(canvas)

    ordered = signal_flow_order(block.circuit, block.groups, block.input_nets)
    row_counts = []
    for group in ordered:
        n_units = sum(block.circuit.device(d).n_units for d in group.devices)
        if n_units > cols * rows:
            raise ValueError(f"group {group.name!r} alone exceeds the canvas")
        row_counts.append(_chunk_balanced(n_units, cols))
    total_rows = (sum(len(rc) for rc in row_counts)
                  + gap_rows * (len(row_counts) - 1))
    if total_rows > rows:
        raise ValueError(
            f"{block.name}: bands need {total_rows} rows, canvas has {rows}"
        )

    row_cursor = (rows - total_rows) // 2
    unit_counter: dict[str, int] = {}
    for group, counts in zip(ordered, row_counts):
        sequence = _slot_sequence(block, group.devices, style)
        pos = 0
        for local_row, count in enumerate(counts):
            row_slots = sequence[pos:pos + count]
            pos += count
            if style == "common_centroid" and local_row % 2 == 1:
                row_slots = list(reversed(row_slots))  # serpentine mirror
            start_col = (cols - count) // 2
            for k, device_name in enumerate(row_slots):
                idx = unit_counter.get(device_name, 0)
                unit_counter[device_name] = idx + 1
                placement.place((device_name, idx), (start_col + k, row_cursor + local_row))
        row_cursor += len(counts) + gap_rows
    return placement


def random_walk_placements(
    block: AnalogBlock,
    count: int,
    style: str = "ysym",
    seed: int = 0,
) -> list[Placement]:
    """``count`` *distinct* placements: a styled base plus a legal walk.

    The candidate sets the profiler and throughput benchmarks price:
    starting from :func:`banded_placement`, random legal unit moves are
    applied and each new arrangement snapshotted.  Revisited arrangements
    are skipped (every returned placement is a distinct signature, hence
    a genuine cache miss for an evaluator) and the walk gives up after a
    bounded number of attempts rather than hanging when no legal move
    remains.
    """
    import numpy as np

    from repro.layout.env import PlacementEnv

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    env = PlacementEnv(block, lambda p: 0.0)
    env.placement = banded_placement(block, style)
    rng = np.random.default_rng(seed)
    placements = [env.placement.copy()]
    seen = {env.placement.signature()}
    attempts = 0
    while len(placements) < count and attempts < 200 * count:
        attempts += 1
        group = env.group_names[int(rng.integers(len(env.group_names)))]
        legal = env.legal_unit_actions(group)
        if not legal:
            continue
        local, direction = legal[int(rng.integers(len(legal)))]
        env.step_unit(group, local, direction)
        signature = env.placement.signature()
        if signature in seen:
            continue
        seen.add(signature)
        placements.append(env.placement.copy())
    return placements
