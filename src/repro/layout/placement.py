"""The placement data structure: unit devices on an occupancy grid.

A placement assigns every *unit* (one finger of one MOSFET) to a grid cell
on a fixed canvas.  It is the single mutable object in the optimization
loop, so it is deliberately small and fast: two dictionaries kept in sync,
with O(1) move/occupancy queries.

Unit identifiers are ``(device_name, unit_index)`` tuples throughout.

Alongside the two dictionaries a placement keeps its occupancy as one
small integer, a bit per cell (:func:`grid_bit`), so that the action
masks test a whole group's targets with a shift and an ``&``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

UnitId = tuple[str, int]
Cell = tuple[int, int]  # (col, row)


def grid_bit(cell: Cell, width: int) -> int:
    """The bit of ``cell`` in a row-major cell mask ``width`` bits a row.

    Masks keep one spare column and row on every side of the cells they
    describe (``width`` is the column count plus two), so shifting a
    mask of in-bounds cells one step in any king direction never wraps
    a cell into another row.
    """
    c, r = cell
    return 1 << ((r + 1) * width + c + 1)


@functools.lru_cache(maxsize=64)
def _inside_mask(cols: int, rows: int) -> int:
    width = cols + 2
    row = ((1 << cols) - 1) << 1
    mask = 0
    for r in range(rows):
        mask |= row << ((r + 1) * width)
    return mask


@dataclass(frozen=True)
class CanvasSpec:
    """Placement canvas dimensions in grid cells."""

    cols: int
    rows: int

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError(f"canvas must be at least 1x1, got {self.cols}x{self.rows}")

    def in_bounds(self, cell: Cell) -> bool:
        c, r = cell
        return 0 <= c < self.cols and 0 <= r < self.rows

    @property
    def n_cells(self) -> int:
        return self.cols * self.rows

    @property
    def mask_width(self) -> int:
        """Bits per row of this canvas's cell masks (see :func:`grid_bit`)."""
        return self.cols + 2

    @property
    def inside_mask(self) -> int:
        """Cell mask of every in-bounds cell."""
        return _inside_mask(self.cols, self.rows)


class Placement:
    """Mutable unit → cell assignment on a canvas.

    Invariants (enforced on every mutation):

    * every unit sits on a distinct in-bounds cell;
    * ``cells`` and ``occupancy`` are exact inverses.

    Derived values that an evaluation reads more than once (the
    signature, device centroids, bounding-box area, and what callers key
    into :meth:`cached`, such as net HPWLs) are memoised until the next
    mutation.
    """

    def __init__(self, canvas: CanvasSpec):
        self.canvas = canvas
        self._cells: dict[UnitId, Cell] = {}
        self._occupancy: dict[Cell, UnitId] = {}
        self._mask = 0
        self._memo: dict = {}

    def _changed(self) -> None:
        # Rebind rather than clear: copies may share the old memo.
        self._memo = {}

    def cached(self, key, compute):
        """``compute()``, memoised on this placement until it next changes.

        ``key`` must identify everything else the value depends on; the
        cached value is shared with copies, so callers must not mutate it.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # ------------------------------------------------------------- mutation

    def place(self, unit: UnitId, cell: Cell) -> None:
        """Put a new unit on an empty cell."""
        if unit in self._cells:
            raise ValueError(f"unit {unit} already placed; use move()")
        self._check_free(cell)
        self._cells[unit] = cell
        self._occupancy[cell] = unit
        self._mask |= grid_bit(cell, self.canvas.mask_width)
        self._changed()

    def move(self, unit: UnitId, cell: Cell) -> None:
        """Move an existing unit to an empty cell."""
        if unit not in self._cells:
            raise KeyError(f"unit {unit} is not placed")
        old = self._cells[unit]
        if cell == old:
            return
        self._check_free(cell)
        del self._occupancy[old]
        self._cells[unit] = cell
        self._occupancy[cell] = unit
        width = self.canvas.mask_width
        self._mask ^= grid_bit(old, width) | grid_bit(cell, width)
        self._changed()

    def move_many(self, moves: dict[UnitId, Cell]) -> None:
        """Move several units atomically (e.g. a rigid group translation).

        All-or-nothing: if any target is out of bounds or would collide
        with a unit outside the moved set, nothing changes.
        """
        for unit in moves:
            if unit not in self._cells:
                raise KeyError(f"unit {unit} is not placed")
        targets = list(moves.values())
        if len(set(targets)) != len(targets):
            raise ValueError("two units moved onto the same cell")
        moved = set(moves)
        for cell in targets:
            if not self.canvas.in_bounds(cell):
                raise ValueError(f"cell {cell} out of bounds")
            holder = self._occupancy.get(cell)
            if holder is not None and holder not in moved:
                raise ValueError(f"cell {cell} occupied by {holder}")
        width = self.canvas.mask_width
        vacated = 0
        for unit in moves:
            old = self._cells[unit]
            del self._occupancy[old]
            vacated |= grid_bit(old, width)
        filled = 0
        for unit, cell in moves.items():
            self._cells[unit] = cell
            self._occupancy[cell] = unit
            filled |= grid_bit(cell, width)
        self._mask = self._mask & ~vacated | filled
        self._changed()

    def translate(self, units: list[UnitId], dc: int, dr: int) -> None:
        """Rigidly move ``units`` by ``(dc, dr)`` cells, unchecked.

        For a translation the caller has already proven legal (every
        target in bounds and free or held by a unit of ``units``, as the
        action masks prove it).  Cells, occupancy and the cell mask end
        exactly as :meth:`move_many` would leave them, dictionary order
        included; the mask shifts as one integer.
        """
        cells = self._cells
        occupancy = self._occupancy
        width = self.canvas.mask_width
        old = [cells[unit] for unit in units]
        vacated = 0
        for cell in old:
            del occupancy[cell]
            vacated |= grid_bit(cell, width)
        for unit, (c, r) in zip(units, old):
            cell = (c + dc, r + dr)
            cells[unit] = cell
            occupancy[cell] = unit
        step = dr * width + dc
        filled = vacated << step if step >= 0 else vacated >> -step
        self._mask = self._mask & ~vacated | filled
        self._changed()

    def _check_free(self, cell: Cell) -> None:
        if not self.canvas.in_bounds(cell):
            raise ValueError(f"cell {cell} out of bounds for {self.canvas}")
        if cell in self._occupancy:
            raise ValueError(f"cell {cell} occupied by {self._occupancy[cell]}")

    # -------------------------------------------------------------- queries

    def cell_of(self, unit: UnitId) -> Cell:
        if unit not in self._cells:
            raise KeyError(f"unit {unit} is not placed")
        return self._cells[unit]

    def cells_of(self, units) -> list[Cell]:
        """Cells of ``units``, in order (one :meth:`cell_of` per unit)."""
        cells = self._cells
        try:
            return [cells[unit] for unit in units]
        except KeyError as exc:
            raise KeyError(f"unit {exc.args[0]} is not placed") from None

    def unit_at(self, cell: Cell) -> UnitId | None:
        return self._occupancy.get(cell)

    def is_free(self, cell: Cell) -> bool:
        return self.canvas.in_bounds(cell) and cell not in self._occupancy

    def row_masks(self) -> list[int]:
        """Per canvas row, the occupied columns as bits (bit ``c`` = column ``c``)."""
        canvas = self.canvas
        width = canvas.mask_width
        row_bits = (1 << canvas.cols) - 1
        return [self._mask >> ((row + 1) * width + 1) & row_bits
                for row in range(canvas.rows)]

    def free_mask(self) -> int:
        """Cell mask of the in-bounds cells no unit holds."""
        return self.canvas.inside_mask & ~self._mask

    @property
    def units(self) -> tuple[UnitId, ...]:
        return tuple(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, unit: UnitId) -> bool:
        return unit in self._cells

    def device_cells(self, device_name: str) -> list[Cell]:
        """Cells of all units of one device, in unit order."""
        out = [
            (unit, cell) for unit, cell in self._cells.items()
            if unit[0] == device_name
        ]
        out.sort(key=lambda uc: uc[0][1])
        return [cell for __, cell in out]

    def device_centroid(self, device_name: str) -> tuple[float, float]:
        """Mean cell position of a device's units (in cell coordinates)."""
        cells = self.device_cells(device_name)
        if not cells:
            raise KeyError(f"device {device_name!r} has no placed units")
        n = float(len(cells))
        return (sum(c for c, __ in cells) / n, sum(r for __, r in cells) / n)

    def device_centroids(self) -> dict[str, tuple[float, float]]:
        """Centroids of every placed device in one pass over the units.

        Numerically identical to calling :meth:`device_centroid` per
        device: cell coordinates are integers, so their sums are exact in
        any order.  The single accumulation pass is what the routing
        estimator's per-placement hot path uses.
        """
        return dict(self.cached("centroids", self._centroids))

    def _centroids(self) -> dict[str, tuple[float, float]]:
        sums: dict[str, list[int]] = {}
        for (name, __), (c, r) in self._cells.items():
            acc = sums.get(name)
            if acc is None:
                sums[name] = [c, r, 1]
            else:
                acc[0] += c
                acc[1] += r
                acc[2] += 1
        return {name: (c / float(n), r / float(n))
                for name, (c, r, n) in sums.items()}

    def bounding_box(self, units: list[UnitId] | None = None) -> tuple[int, int, int, int]:
        """(col_min, row_min, col_max, row_max) of the chosen units (or all)."""
        chosen = units if units is not None else list(self._cells)
        if not chosen:
            raise ValueError("bounding box of an empty placement")
        cells = [self.cell_of(u) for u in chosen]
        cs = [c for c, __ in cells]
        rs = [r for __, r in cells]
        return (min(cs), min(rs), max(cs), max(rs))

    def area_cells(self) -> int:
        """Bounding-box area of the whole placement, in cells."""
        return self.cached("area", self._area)

    def _area(self) -> int:
        if not self._cells:
            raise ValueError("bounding box of an empty placement")
        cs, rs = zip(*self._cells.values())
        return (max(cs) - min(cs) + 1) * (max(rs) - min(rs) + 1)

    # ----------------------------------------------------------------- misc

    def copy(self) -> "Placement":
        out = Placement(self.canvas)
        out._cells = dict(self._cells)
        out._occupancy = dict(self._occupancy)
        out._mask = self._mask
        out._memo = self._memo
        return out

    def as_dict(self) -> dict[UnitId, Cell]:
        """Snapshot of the assignment (for hashing / serialization)."""
        return dict(self._cells)

    def signature(self) -> tuple:
        """Hashable canonical form (sorted by unit id)."""
        return self.cached("signature", self._signature)

    def _signature(self) -> tuple:
        return tuple(sorted(self._cells.items()))

    def __repr__(self) -> str:
        return f"Placement({self.canvas.cols}x{self.canvas.rows}, units={len(self)})"
