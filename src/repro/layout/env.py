"""The placement environment the RL agents interact with (paper Fig. 2).

:class:`PlacementEnv` owns the placement, knows the group structure, and
exposes exactly what the two agent levels need:

* legal **unit actions** per group (bottom level) and legal **group
  actions** (top level), both over the eight king-move directions;
* hashable **state encodings**: per-group states are translation-invariant
  (unit offsets from the group's bounding-box corner, tagged by device
  index) so bottom-level learning transfers when the group is moved; the
  top-level state is the tuple of quantized group centroids;
* the **objective hook**: a callable ``placement -> cost`` (lower is
  better), typically :meth:`repro.eval.PlacementEvaluator.cost`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.layout.generators import banded_placement
from repro.layout.moves import (
    DIRECTIONS,
    apply_group_move,
    apply_unit_move,
    connected_unit_moves,
    direction_steps,
    group_move_is_legal,
    group_shape,
    legal_group_moves,
    unit_move_is_legal,
)
from repro.layout.placement import Placement, UnitId, grid_bit
from repro.netlist.library import AnalogBlock

Objective = Callable[[Placement], float]
ObjectiveMany = Callable[[Sequence[Placement]], "list[float]"]


class PlacementEnv:
    """Layout environment for one analog block.

    Args:
        block: the circuit block being placed.
        objective: placement cost function (lower is better).
        adjacency: group-connectivity rule, 4 or 8 (paper-style king
            moves with loose clusters default to 8).
        objective_many: optional batched form of the objective (pass
            :meth:`repro.eval.PlacementEvaluator.cost_many` to price a
            whole candidate batch in one simulator pass); when absent,
            :meth:`cost_many` falls back to mapping ``objective``.
    """

    def __init__(
        self,
        block: AnalogBlock,
        objective: Objective,
        adjacency: int = 8,
        objective_many: ObjectiveMany | None = None,
    ):
        if adjacency not in (4, 8):
            raise ValueError(f"adjacency must be 4 or 8, got {adjacency}")
        self.block = block
        self.objective = objective
        self.objective_many = objective_many
        self.adjacency = adjacency
        self.group_names = [g.name for g in block.groups]
        self._group_units: dict[str, list[UnitId]] = {}
        for group in block.groups:
            units: list[UnitId] = []
            for name in group.devices:
                device = block.circuit.device(name)
                units.extend((name, k) for k in range(device.n_units))
            self._group_units[group.name] = units
        device_index = {
            name: i
            for group in block.groups
            for i, name in enumerate(group.devices)
        }
        self._unit_device_index = {
            name: [device_index[device] for device, __ in units]
            for name, units in self._group_units.items()
        }
        self.placement = banded_placement(block, style="sequential")

    # -------------------------------------------------------------- basics

    def reset(self) -> Placement:
        """Re-seed the placement with the sequential banded layout the
        environment starts from (returns the live object)."""
        self.placement = banded_placement(self.block, style="sequential")
        return self.placement

    def cost(self) -> float:
        """Objective value of the current placement."""
        return self.objective(self.placement)

    def cost_many(self, placements: Sequence[Placement]) -> list[float]:
        """Objective values of candidate placements, batched when possible.

        Uses ``objective_many`` (one simulator pass for the whole batch)
        when the environment was built with one; otherwise maps the
        scalar objective.  Single-candidate batches always go through the
        scalar objective, so a ``batch=1`` optimizer is indistinguishable
        from the classic per-move loop.
        """
        placements = list(placements)
        if self.objective_many is not None and len(placements) > 1:
            return list(self.objective_many(placements))
        return [self.objective(p) for p in placements]

    # -------------------------------------------------------------- states

    def group_state(self, group_name: str) -> tuple:
        """Translation-invariant state of one group's internal arrangement.

        Sorted tuple of ``(device_index_within_group, dcol, drow)`` with
        offsets measured from the group's bounding-box corner.
        """
        cells = self.placement.cells_of(self._group_units[group_name])
        c0 = min(c for c, __ in cells)
        r0 = min(r for __, r in cells)
        entries = [
            (index, c - c0, r - r0)
            for index, (c, r) in zip(
                self._unit_device_index[group_name], cells)
        ]
        entries.sort()
        return tuple(entries)

    def global_state(self) -> tuple:
        """Top-level state: quantized centroid of every group, in order."""
        out = []
        cells_of = self.placement.cells_of
        for units in self._group_units.values():
            cells = cells_of(units)
            n = len(cells)
            out.append((
                round(sum(c for c, __ in cells) / n),
                round(sum(r for __, r in cells) / n),
            ))
        return tuple(out)

    # -------------------------------------------------------------- actions

    def legal_unit_actions(self, group_name: str) -> list[tuple[int, int]]:
        """Legal (unit_local_index, direction_index) pairs for a group.

        The shape-cached cut analysis names the directions that keep the
        group connected; a target is then tested against the
        placement's free-cell mask.
        """
        placement = self.placement
        cells = placement.cells_of(self._group_units[group_name])
        moves = connected_unit_moves(group_shape(cells), self.adjacency)
        width = placement.canvas.mask_width
        steps = direction_steps(width)
        free = placement.free_mask()
        actions = []
        for local, (cell, unit_moves) in enumerate(zip(cells, moves)):
            bit = grid_bit(cell, width)
            for k in unit_moves:
                step = steps[k]
                if free & (bit << step if step > 0 else bit >> -step):
                    actions.append((local, k))
        return actions

    def legal_group_actions(self, group_name: str) -> list[int]:
        """Legal direction indices for rigidly moving a whole group."""
        return legal_group_moves(self.placement, self._group_units[group_name])

    def step_unit(self, group_name: str, unit_local: int, direction_index: int) -> bool:
        """Apply a unit move if legal; returns whether it was applied."""
        units = self._group_units[group_name]
        if not 0 <= unit_local < len(units):
            raise IndexError(f"unit index {unit_local} out of range for {group_name}")
        direction = DIRECTIONS[direction_index]
        unit = units[unit_local]
        if not unit_move_is_legal(self.placement, unit, direction, units, self.adjacency):
            return False
        apply_unit_move(self.placement, unit, direction)
        return True

    def step_group(self, group_name: str, direction_index: int) -> bool:
        """Apply a rigid group translation if legal."""
        units = self._group_units[group_name]
        direction = DIRECTIONS[direction_index]
        if not group_move_is_legal(self.placement, units, direction):
            return False
        apply_group_move(self.placement, units, direction)
        return True

    def move_unit(self, group_name: str, unit_local: int, direction_index: int) -> None:
        """Apply a unit move that :meth:`legal_unit_actions` just offered.

        The agents' path: it skips the legality check :meth:`step_unit`
        repeats.
        """
        unit = self._group_units[group_name][unit_local]
        apply_unit_move(self.placement, unit, DIRECTIONS[direction_index])

    def move_group(self, group_name: str, direction_index: int) -> None:
        """Apply a group move that :meth:`legal_group_actions` just offered
        (the agents' path: an unchecked :meth:`Placement.translate`,
        without :meth:`step_group`'s check)."""
        dc, dr = DIRECTIONS[direction_index]
        self.placement.translate(self._group_units[group_name], dc, dr)

    def undo_unit(self, group_name: str, unit_local: int, direction_index: int) -> None:
        """Undo a unit move by applying the opposite direction."""
        dc, dr = DIRECTIONS[direction_index]
        unit = self._group_units[group_name][unit_local]
        c, r = self.placement.cell_of(unit)
        self.placement.move(unit, (c - dc, r - dr))

    def undo_group(self, group_name: str, direction_index: int) -> None:
        """Undo a rigid group translation :meth:`move_group` applied."""
        dc, dr = DIRECTIONS[direction_index]
        self.placement.translate(self._group_units[group_name], -dc, -dr)
