"""Dummy-device insertion — the traditional LDE mitigation.

The paper's introduction names the two classical defences against LDEs:
symmetric placement and "putting dummies around", noting the latter "can
double circuit area and introduce additional parasitics" and that "even
with dummies included in a perfectly symmetric layout, non-linear
variations may not cancel".  This module implements the practice so the
claim can be measured (ablation D):

* a **dummy halo** fills every free cell adjacent to an active unit;
* dummies are electrically inert (they never enter the netlist) but they
  *do* extend diffusion runs — relieving and equalising STI/LOD stress —
  and they grow the layout bounding box, which is exactly the area cost
  the paper describes.

Dummy units are named ``("__dummy__", k)``; the evaluator sees them only
through occupancy (diffusion runs) and area.
"""

from __future__ import annotations

from repro.layout.moves import neighbours
from repro.layout.placement import Placement, UnitId

DUMMY_DEVICE = "__dummy__"


def is_dummy(unit: UnitId) -> bool:
    """True if a unit is a dummy (not part of the netlist)."""
    return unit[0] == DUMMY_DEVICE


def active_units(placement: Placement) -> list[UnitId]:
    """Placed units that belong to real devices."""
    return [u for u in placement.units if not is_dummy(u)]


def with_dummy_halo(placement: Placement, adjacency: int = 8) -> Placement:
    """A copy of ``placement`` with dummies on every free neighbour cell.

    This is the "dummies around everything" recipe: each active unit gets
    its exposed sides covered.  The result typically inflates the
    bounding box substantially (the paper: "can double circuit area").

    Args:
        placement: the active-device placement (must not already contain
            dummies).
        adjacency: halo neighbourhood, 4 or 8 (8 covers corners too).
    """
    for unit in placement.units:
        if is_dummy(unit):
            raise ValueError("placement already contains dummy units")
    out = placement.copy()
    targets: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for unit in placement.units:
        for cell in neighbours(placement.cell_of(unit), adjacency):
            if cell in seen:
                continue
            seen.add(cell)
            if out.is_free(cell):
                targets.append(cell)
    for k, cell in enumerate(sorted(targets)):
        out.place((DUMMY_DEVICE, k), cell)
    return out


def dummy_area_overhead(placement: Placement) -> float:
    """Relative bounding-box area growth caused by the dummies.

    Returns ``area_with_dummies / area_active_only - 1`` (0.0 when no
    dummies are present).
    """
    active = active_units(placement)
    if not active:
        raise ValueError("placement has no active units")
    c0, r0, c1, r1 = placement.bounding_box(active)
    active_area = (c1 - c0 + 1) * (r1 - r0 + 1)
    return placement.area_cells() / active_area - 1.0
