"""Derive variation-model unit contexts from a placement.

This is the bridge between geometry and physics: for every placed unit we
compute its physical position, its contiguous-diffusion runs (any occupied
neighbour extends the diffusion — the standard abutted-row abstraction),
and its distance to the canvas edge (the well-boundary proxy the WPE model
uses).

The batch entry points (:func:`unit_contexts`,
:func:`device_contexts_all`) rasterize the placement into one boolean
occupancy grid and compute every position, diffusion run and edge
distance array-wise — the evaluation loop touches each cell a constant
number of times instead of re-scanning rows per unit.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.layout.placement import Placement, UnitId
from repro.tech import Technology
from repro.variation import UnitContext


def _run_length(placement: Placement, col: int, row: int, step: int) -> int:
    """Contiguous occupied cells starting one step away in ±col direction."""
    count = 0
    c = col + step
    while placement.canvas.in_bounds((c, row)) and placement.unit_at((c, row)) is not None:
        count += 1
        c += step
    return count


def unit_context(
    placement: Placement, unit: UnitId, tech: Technology
) -> UnitContext:
    """Context of a single unit (position, diffusion runs, edge distance)."""
    col, row = placement.cell_of(unit)
    pitch = tech.grid_pitch
    x = (col + 0.5) * pitch
    y = (row + 0.5) * pitch
    dist_to_edge = pitch * min(
        col + 0.5,
        placement.canvas.cols - col - 0.5,
        row + 0.5,
        placement.canvas.rows - row - 0.5,
    )
    return UnitContext(
        x=x,
        y=y,
        run_left=_run_length(placement, col, row, -1),
        run_right=_run_length(placement, col, row, +1),
        dist_to_edge=dist_to_edge,
    )


def _streaks(occ: np.ndarray) -> np.ndarray:
    """Per-cell length of the contiguous occupied run ending at that cell.

    Computed along the last axis (columns) without Python-level scanning:
    the running cumsum minus its value at the most recent gap.  Works on a
    single ``(rows, cols)`` grid or a stacked ``(k, rows, cols)`` batch.
    """
    cumulative = np.cumsum(occ, axis=-1)
    at_gaps = np.where(occ, 0, cumulative)
    last_gap = np.maximum.accumulate(at_gaps, axis=-1)
    return cumulative - last_gap


def unit_contexts(
    placement: Placement, tech: Technology
) -> dict[UnitId, UnitContext]:
    """Contexts for every placed unit (single vectorized grid pass).

    Thin wrapper over :func:`unit_context_arrays` — one algorithm serves
    both the scalar and the candidate-batch paths.
    """
    if not len(placement):
        return {}
    units_lists, x, y, run_left, run_right, dist = unit_context_arrays(
        [placement], tech
    )
    return {
        unit: UnitContext(
            x=float(x[i]),
            y=float(y[i]),
            run_left=int(run_left[i]),
            run_right=int(run_right[i]),
            dist_to_edge=float(dist[i]),
        )
        for i, unit in enumerate(units_lists[0])
    }


def unit_context_arrays(
    placements: "list[Placement]", tech: Technology
) -> tuple[list[list[UnitId]], np.ndarray, np.ndarray, np.ndarray,
           np.ndarray, np.ndarray]:
    """Flat context arrays of every unit of K same-canvas placements.

    One stacked occupancy-grid pass serves the whole candidate batch.
    Returns ``(units_per_placement, x, y, run_left, run_right,
    dist_to_edge)`` where the arrays are flat in placement-major order —
    placement ``p``'s unit ``i`` (of ``units_per_placement[p]``, in
    ``as_dict`` order) lands at flat index ``sum(earlier counts) + i``.
    The per-unit values are exactly :func:`unit_contexts`'s, without the
    per-unit ``UnitContext`` object construction.
    """
    if not placements:
        return [], *(np.zeros(0) for __ in range(5))
    n_cols = placements[0].canvas.cols
    n_rows = placements[0].canvas.rows
    for p in placements[1:]:
        if p.canvas.cols != n_cols or p.canvas.rows != n_rows:
            raise ValueError("cannot batch placements on different canvases")

    units_per_placement: list[list[UnitId]] = []
    flat_cells: list = []
    for placement in placements:
        assignment = placement.as_dict()
        units_per_placement.append(list(assignment))
        flat_cells.extend(assignment.values())
    counts = [len(units) for units in units_per_placement]
    cells = np.fromiter(
        chain.from_iterable(flat_cells), dtype=np.intp,
        count=2 * len(flat_cells),
    ).reshape(len(flat_cells), 2)
    cols = cells[:, 0]
    rows = cells[:, 1]
    pidx = np.repeat(np.arange(len(placements), dtype=np.intp), counts)
    occupancy = np.zeros((len(placements), n_rows, n_cols), dtype=bool)
    occupancy[pidx, rows, cols] = True

    left = _streaks(occupancy)
    right = _streaks(occupancy[..., ::-1])[..., ::-1]
    run_left = np.where(
        cols > 0, left[pidx, rows, np.maximum(cols - 1, 0)], 0
    )
    run_right = np.where(
        cols < n_cols - 1,
        right[pidx, rows, np.minimum(cols + 1, n_cols - 1)], 0,
    )

    pitch = tech.grid_pitch
    x = (cols + 0.5) * pitch
    y = (rows + 0.5) * pitch
    dist_to_edge = pitch * np.minimum.reduce(
        (cols + 0.5, n_cols - cols - 0.5, rows + 0.5, n_rows - rows - 0.5)
    )
    return (units_per_placement, x, y,
            run_left.astype(float), run_right.astype(float), dist_to_edge)


def device_contexts_all(
    placement: Placement, tech: Technology
) -> dict[str, list[UnitContext]]:
    """Contexts of every device's units, grouped by device, in unit order.

    One grid pass serves the whole placement — callers that need several
    devices should use this instead of calling :func:`device_contexts`
    per device.
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
