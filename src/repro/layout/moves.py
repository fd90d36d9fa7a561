"""The action space: unit moves, group moves, and their legality.

This is the paper's Fig. 2(b): each unit has eight candidate moves (the
king-move neighbourhood); a move is *legal* when the target cell is in
bounds and free and the unit's group stays connected afterwards ("during
optimization, all units within a group remain connected").  The
connectivity half of that rule is a cut analysis of the group's shape,
cached per shape (:func:`connected_unit_moves`); :func:`is_connected` is
the plain statement of the rule it must agree with.

Group-level actions translate a whole group rigidly by one of the same
eight directions; they are legal when every target cell is free (or being
vacated by the group itself).
"""

from __future__ import annotations

import functools

from repro.layout.placement import Cell, Placement, UnitId

# The eight king moves, ordered E, NE, N, NW, W, SW, S, SE.
DIRECTIONS: tuple[Cell, ...] = (
    (1, 0), (1, -1), (0, -1), (-1, -1),
    (-1, 0), (-1, 1), (0, 1), (1, 1),
)


def neighbours(cell: Cell, adjacency: int = 8) -> list[Cell]:
    """Adjacent cells under 4- or 8-connectivity."""
    if adjacency == 8:
        dirs = DIRECTIONS
    elif adjacency == 4:
        dirs = ((1, 0), (0, -1), (-1, 0), (0, 1))
    else:
        raise ValueError(f"adjacency must be 4 or 8, got {adjacency}")
    c, r = cell
    return [(c + dc, r + dr) for dc, dr in dirs]


def is_connected(cells: list[Cell], adjacency: int = 8) -> bool:
    """True if the cells form one connected component."""
    if not cells:
        return True
    cell_set = set(cells)
    if len(cell_set) != len(cells):
        raise ValueError("duplicate cells in connectivity check")
    stack = [cells[0]]
    seen = {cells[0]}
    while stack:
        current = stack.pop()
        for nb in neighbours(current, adjacency):
            if nb in cell_set and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cell_set)


def group_shape(cells: list[Cell]) -> tuple[Cell, ...]:
    """A group's cells as offsets from its bounding-box corner, in order."""
    c0 = min(c for c, __ in cells)
    r0 = min(r for __, r in cells)
    return tuple((c - c0, r - r0) for c, r in cells)


@functools.lru_cache(maxsize=1024)
def connected_unit_moves(
    shape: tuple[Cell, ...], adjacency: int = 8
) -> tuple[tuple[int, ...], ...]:
    """Per unit of ``shape``, the direction indices that keep it connected.

    Removing a unit splits the rest of the group into connected
    components; moving the unit to a cell reconnects the group iff that
    cell is not a member and touches every component.  One component
    analysis per unit replaces a flood fill per candidate direction, and
    the result depends only on geometry, so it is memoised per shape
    (see :func:`group_shape`) for every circuit at once.  Whether the
    target is in bounds and free is the caller's check.
    """
    members = set(shape)
    if len(members) != len(shape):
        raise ValueError("duplicate cells in connectivity check")
    out = []
    for cell in shape:
        label: dict[Cell, int] = {}
        n_components = 0
        for start in shape:
            if start == cell or start in label:
                continue
            label[start] = n_components
            stack = [start]
            while stack:
                for nb in neighbours(stack.pop(), adjacency):
                    if nb in members and nb != cell and nb not in label:
                        label[nb] = n_components
                        stack.append(nb)
            n_components += 1
        c, r = cell
        legal = []
        for k, (dc, dr) in enumerate(DIRECTIONS):
            target = (c + dc, r + dr)
            if target in members:
                continue
            touched = {
                label[nb] for nb in neighbours(target, adjacency) if nb in label
            }
            if len(touched) == n_components:
                legal.append(k)
        out.append(tuple(legal))
    return tuple(out)


def unit_move_is_legal(
    placement: Placement,
    unit: UnitId,
    direction: Cell,
    group_units: list[UnitId],
    adjacency: int = 8,
) -> bool:
    """Would moving ``unit`` one step in ``direction`` be legal?

    Legal = target in bounds, target free, and the unit's group remains a
    single connected cluster after the move.
    """
    k = DIRECTIONS.index(direction)
    return k in legal_unit_moves(placement, unit, group_units, adjacency)


def legal_unit_moves(
    placement: Placement,
    unit: UnitId,
    group_units: list[UnitId],
    adjacency: int = 8,
) -> list[int]:
    """Indices into :data:`DIRECTIONS` that are legal for ``unit``."""
    cells = [placement.cell_of(u) for u in group_units]
    local = group_units.index(unit)
    c, r = cells[local]
    return [
        k for k in connected_unit_moves(group_shape(cells), adjacency)[local]
        if placement.is_free((c + DIRECTIONS[k][0], r + DIRECTIONS[k][1]))
    ]


def apply_unit_move(placement: Placement, unit: UnitId, direction: Cell) -> None:
    """Apply a unit move (caller must have checked legality)."""
    c, r = placement.cell_of(unit)
    placement.move(unit, (c + direction[0], r + direction[1]))


def group_move_is_legal(
    placement: Placement, group_units: list[UnitId], direction: Cell
) -> bool:
    """Would rigidly translating the whole group be legal?"""
    moved = set(group_units)
    for unit in group_units:
        c, r = placement.cell_of(unit)
        target = (c + direction[0], r + direction[1])
        if not placement.canvas.in_bounds(target):
            return False
        holder = placement.unit_at(target)
        if holder is not None and holder not in moved:
            return False
    return True


def legal_group_moves(
    placement: Placement, group_units: list[UnitId]
) -> list[int]:
    """Indices into :data:`DIRECTIONS` legal as rigid group translations."""
    return [
        k for k, direction in enumerate(DIRECTIONS)
        if group_move_is_legal(placement, group_units, direction)
    ]


def apply_group_move(
    placement: Placement, group_units: list[UnitId], direction: Cell
) -> None:
    """Rigidly translate a group (caller must have checked legality)."""
    moves = {}
    for unit in group_units:
        c, r = placement.cell_of(unit)
        moves[unit] = (c + direction[0], r + direction[1])
    placement.move_many(moves)
