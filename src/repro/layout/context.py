"""Derive variation-model unit contexts from a placement.

This is the bridge between geometry and physics: for every placed unit we
compute its physical position, its contiguous-diffusion runs (any occupied
neighbour extends the diffusion — the standard abutted-row abstraction),
and its distance to the canvas edge (the well-boundary proxy the WPE model
uses).

Diffusion runs come from one scan of the placement's occupancy map
(:func:`diffusion_runs`): each row's occupied columns fold into a bit
mask, and the runs of a mask are scanned once and cached, so a placement
costs one pass over its units plus a lookup per row.  Positions and edge
distances depend only on a unit's cell (:func:`cell_geometry`).  The
whole-placement entry points (:func:`unit_contexts`,
:func:`device_contexts_all`), the scalar :func:`unit_context` and the
evaluator's table of unit deltas all read the same scan.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.layout.placement import Placement, UnitId
from repro.tech import Technology
from repro.variation import UnitContext

Runs = tuple[int, int]


@lru_cache(maxsize=4096)
def _row_runs(mask: int, cols: int) -> tuple[Runs, ...]:
    """``(run_left, run_right)`` of every column of one occupancy row.

    Bit ``c`` of ``mask`` is set when column ``c`` is occupied; a run
    counts the contiguous occupied cells next to a column on that side.
    Free columns read ``(0, 0)``.
    """
    out: list[Runs] = []
    start = 0
    for col in range(cols + 1):
        if col < cols and mask >> col & 1:
            continue
        # Columns start..col-1 are one occupied streak; col is free.
        out.extend((k - start, col - 1 - k) for k in range(start, col))
        if col < cols:
            out.append((0, 0))
        start = col + 1
    return tuple(out)


def diffusion_runs(placement: Placement) -> list[tuple[Runs, ...]]:
    """Per row, per column ``(run_left, run_right)`` of the occupancy map.

    ``diffusion_runs(p)[row][col]`` holds the runs of cell ``(col,
    row)``; each row's mask is a slice of the placement's occupancy
    mask (:meth:`Placement.row_masks`).
    """
    cols = placement.canvas.cols
    return [_row_runs(mask, cols) for mask in placement.row_masks()]


def cell_geometry(
    cols: np.ndarray, rows: np.ndarray, n_cols: int, n_rows: int,
    tech: Technology,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, y, dist_to_edge)`` [m] of cells on an ``n_cols x n_rows``
    canvas, from integer column and row arrays."""
    pitch = tech.grid_pitch
    x = (cols + 0.5) * pitch
    y = (rows + 0.5) * pitch
    dist_to_edge = pitch * np.minimum.reduce(
        (cols + 0.5, n_cols - cols - 0.5, rows + 0.5, n_rows - rows - 0.5)
    )
    return x, y, dist_to_edge


def unit_context(
    placement: Placement, unit: UnitId, tech: Technology
) -> UnitContext:
    """Context of a single unit: its entry of :func:`unit_contexts`.

    Raises:
        KeyError: the unit is not placed.
    """
    placement.cell_of(unit)
    return unit_contexts(placement, tech)[unit]


def unit_contexts(
    placement: Placement, tech: Technology
) -> dict[UnitId, UnitContext]:
    """Contexts for every placed unit, from one occupancy scan."""
    if not len(placement):
        return {}
    assignment = placement.as_dict()
    runs = diffusion_runs(placement)
    cols, rows = (np.array(axis, dtype=np.intp)
                  for axis in zip(*assignment.values()))
    x, y, dist = cell_geometry(
        cols, rows, placement.canvas.cols, placement.canvas.rows, tech)
    return {
        unit: UnitContext(
            x=float(x[i]),
            y=float(y[i]),
            run_left=runs[row][col][0],
            run_right=runs[row][col][1],
            dist_to_edge=float(dist[i]),
        )
        for i, (unit, (col, row)) in enumerate(assignment.items())
    }


def device_contexts_all(
    placement: Placement, tech: Technology
) -> dict[str, list[UnitContext]]:
    """Contexts of every device's units, grouped by device, in unit order.

    One occupancy scan serves the whole placement — callers that need
    several devices should use this instead of calling
    :func:`device_contexts` per device.
    """
    contexts = unit_contexts(placement, tech)
    grouped: dict[str, list[tuple[int, UnitContext]]] = {}
    for (name, index), ctx in contexts.items():
        grouped.setdefault(name, []).append((index, ctx))
    return {
        name: [ctx for __, ctx in sorted(pairs, key=lambda p: p[0])]
        for name, pairs in grouped.items()
    }


def device_contexts(
    placement: Placement, device_name: str, tech: Technology
) -> list[UnitContext]:
    """Contexts of one device's units, in unit order."""
    grouped = device_contexts_all(placement, tech)
    if device_name not in grouped:
        raise KeyError(f"device {device_name!r} has no placed units")
    return grouped[device_name]
