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
vacated by the group itself).  :func:`group_move_is_legal` states that
rule unit by unit; :func:`legal_group_moves`, the mask the agents read,
tests it as one shift of the group's cell mask against the placement's
(see :func:`repro.layout.placement.grid_bit`).
"""

from __future__ import annotations

import functools

from repro.layout.placement import Cell, Placement, UnitId, grid_bit

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


@functools.lru_cache(maxsize=64)
def direction_steps(width: int) -> tuple[int, ...]:
    """Per :data:`DIRECTIONS` entry, the bit shift of one king move in a
    cell mask ``width`` bits a row (see :func:`repro.layout.placement.grid_bit`)."""
    return tuple(dc + dr * width for dc, dr in DIRECTIONS)


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
    (see :func:`group_shape`) for every circuit at once.  The components
    are grown as cell masks (one bit per cell, a spare column and row
    around the shape): a flood-fill step is a few shifts, and a target
    touches a component iff it lies in the component's grown halo.
    Whether the target is in bounds and free is the caller's check.
    """
    if adjacency not in (4, 8):
        raise ValueError(f"adjacency must be 4 or 8, got {adjacency}")
    king = adjacency == 8
    c0 = min(c for c, __ in shape)
    r0 = min(r for __, r in shape)
    width = max(c for c, __ in shape) - c0 + 3
    bits = [grid_bit((c - c0, r - r0), width) for c, r in shape]
    members = 0
    for bit in bits:
        members |= bit
    if members.bit_count() != len(shape):
        raise ValueError("duplicate cells in connectivity check")
    moves = direction_steps(width)
    out = []
    for bit in bits:
        rest = members & ~bit
        halos = []
        while rest:
            component = rest & -rest
            while True:
                row = component | component << 1 | component >> 1
                if king:
                    halo = row | row << width | row >> width
                else:
                    halo = row | component << width | component >> width
                grown = halo & rest
                if grown == component:
                    break
                component = grown
            halos.append(halo)
            rest ^= component
        legal = []
        for k, move in enumerate(moves):
            target = bit << move if move > 0 else bit >> -move
            if target & members:
                continue
            for halo in halos:
                if not target & halo:
                    break
            else:
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
    """Indices into :data:`DIRECTIONS` legal as rigid group translations.

    The rule of :func:`group_move_is_legal` on cell masks: a translation
    is legal iff the shifted group lands only on in-bounds cells that
    are free or held by the group itself.
    """
    width = placement.canvas.mask_width
    group = 0
    for unit in group_units:
        group |= grid_bit(placement.cell_of(unit), width)
    blocked = ~(placement.free_mask() | group)
    return [
        k for k, step in enumerate(direction_steps(width))
        if not (group << step if step > 0 else group >> -step) & blocked
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
