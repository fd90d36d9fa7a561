"""Placement environment substrate.

Everything spatial lives here: the occupancy-grid placement model, the
eight-direction move set with legality rules (paper Fig. 2), the banded
generators for the SFG-seeded initial placement and both symmetric
baseline styles (paper Fig. 1), the placement → variation-context bridge,
and the :class:`PlacementEnv` the RL agents drive.
"""

from repro.layout.context import (
    device_contexts,
    device_contexts_all,
    unit_context,
    unit_contexts,
)
from repro.layout.dummies import (
    active_units,
    dummy_area_overhead,
    is_dummy,
    with_dummy_halo,
)
from repro.layout.env import PlacementEnv
from repro.layout.generators import (
    STYLES,
    banded_placement,
    random_walk_placements,
)
from repro.layout.svg import placement_to_svg, save_placement_svg
from repro.layout.moves import (
    DIRECTIONS,
    apply_group_move,
    apply_unit_move,
    connected_unit_moves,
    group_move_is_legal,
    group_shape,
    is_connected,
    legal_group_moves,
    legal_unit_moves,
    neighbours,
    unit_move_is_legal,
)
from repro.layout.placement import CanvasSpec, Cell, Placement, UnitId
from repro.layout.render import device_labels, render_placement

__all__ = [
    "CanvasSpec",
    "Cell",
    "DIRECTIONS",
    "Placement",
    "PlacementEnv",
    "STYLES",
    "UnitId",
    "active_units",
    "apply_group_move",
    "apply_unit_move",
    "banded_placement",
    "connected_unit_moves",
    "device_contexts",
    "device_contexts_all",
    "device_labels",
    "dummy_area_overhead",
    "group_move_is_legal",
    "group_shape",
    "is_connected",
    "is_dummy",
    "legal_group_moves",
    "legal_unit_moves",
    "neighbours",
    "placement_to_svg",
    "random_walk_placements",
    "render_placement",
    "save_placement_svg",
    "unit_context",
    "unit_contexts",
    "unit_move_is_legal",
    "with_dummy_halo",
]
