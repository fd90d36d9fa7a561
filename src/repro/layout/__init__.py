"""Placement environment substrate.

Everything spatial lives here: the occupancy-grid placement model, the
eight-direction move set with legality rules (paper Fig. 2), the banded
generators for the SFG-seeded initial placement and both symmetric
baseline styles (paper Fig. 1), the placement → variation-context bridge,
and the :class:`PlacementEnv` the RL agents drive.
"""

#: Export → defining module (PEP 562): exports load on first access, so
#: the placement loop does not load the SVG writer,
#: which only ``--svg`` needs.
_LAZY = {
    "device_contexts": "repro.layout.context",
    "device_contexts_all": "repro.layout.context",
    "unit_context": "repro.layout.context",
    "unit_contexts": "repro.layout.context",
    "active_units": "repro.layout.dummies",
    "dummy_area_overhead": "repro.layout.dummies",
    "is_dummy": "repro.layout.dummies",
    "with_dummy_halo": "repro.layout.dummies",
    "PlacementEnv": "repro.layout.env",
    "STYLES": "repro.layout.generators",
    "banded_placement": "repro.layout.generators",
    "random_walk_placements": "repro.layout.generators",
    "placement_to_svg": "repro.layout.svg",
    "save_placement_svg": "repro.layout.svg",
    "DIRECTIONS": "repro.layout.moves",
    "apply_group_move": "repro.layout.moves",
    "apply_unit_move": "repro.layout.moves",
    "connected_unit_moves": "repro.layout.moves",
    "group_move_is_legal": "repro.layout.moves",
    "group_shape": "repro.layout.moves",
    "is_connected": "repro.layout.moves",
    "legal_group_moves": "repro.layout.moves",
    "legal_unit_moves": "repro.layout.moves",
    "neighbours": "repro.layout.moves",
    "unit_move_is_legal": "repro.layout.moves",
    "CanvasSpec": "repro.layout.placement",
    "Cell": "repro.layout.placement",
    "Placement": "repro.layout.placement",
    "UnitId": "repro.layout.placement",
    "device_labels": "repro.layout.render",
    "render_placement": "repro.layout.render",
}

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


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
