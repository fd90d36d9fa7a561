"""The :class:`PlacementEvaluator` — the objective the optimizers query.

This object closes the loop the paper draws in Fig. 2(c): a candidate
placement goes in; unit contexts are derived; the variation model turns
them into per-device parameter deltas; routing parasitics are estimated
and bound into the block's testbenches (built once per evaluator); the
right measurement suite simulates the result; metrics come out.  It also owns the two pieces of bookkeeping the experiments
need:

* **simulation counting** — every cache-miss evaluation increments
  ``sim_count`` (the paper's "# simulations" column);
* **memoisation** — placements are immutable value objects via their
  signature, so revisited states cost nothing (and do not recount).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.eval.metrics import Metrics
from repro.eval.objective import ObjectiveWeights
from repro.eval.suites import BENCHES, SUITES, Warm
from repro.eval.warm import WarmStore
from repro.layout.context import cell_geometry, diffusion_runs
from repro.layout.placement import CanvasSpec, Placement
from repro.netlist.library import AnalogBlock
from repro.sim.dc import ConvergenceError
from repro.tech import Technology, generic_tech_40
from repro.variation import DeviceDelta, VariationModel, default_variation_model

# Headline-metric value assigned to placements whose simulation fails to
# converge: bad enough that no optimizer keeps them, finite enough that
# rewards and FOMs stay well-defined.
FAILURE_PRIMARY = 1.0e6

# Strength of the multiplicative area term of the cost at
# ``ObjectiveWeights.area == 1``; a request scales it through that weight.
AREA_WEIGHT = 0.05


def _run_pairs(
    n_cols: int, shorter: int, longest: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(col, run_left, run_right)`` of every cell of an ``n_cols``-wide
    row with every run pair it can have (``run_left <= col``,
    ``run_right < n_cols - col``) whose streak ``run_left + run_right +
    1`` lies in ``(shorter, longest]``, column-major."""
    col, left, right = np.ogrid[:n_cols, :longest, :longest]
    streak = left + right + 1
    return np.nonzero((left <= col) & (right < n_cols - col)
                      & (streak > shorter) & (streak <= longest))


class _DeltaTable:
    """Systematic unit deltas of one canvas, memoised per unit context.

    ``index`` maps a context key ``(cell, (run_left, run_right),
    polarity)`` to its column in ``values``, whose two rows are the
    units' ``dvth`` and ``dbeta_rel``.  Values come from
    :meth:`VariationModel.systematic_units` — the one place field, LOD
    and WPE terms are composed.  A model call pays a fixed cost of dozens
    of small numpy calls before its first element, so a miss fills whole
    (row, polarity) pairs: every cell of the row with every run pair
    whose streak is at most ``streak``, the longest any placement has
    had.  Later moves are lookups until a longer streak turns up, which
    fills only the new, longer run pairs.  A row holds at most ``cols *
    streak * (streak + 1) / 2`` contexts per polarity: 220 when a
    10-column row fills up, a few thousand for a few units on a
    100-column canvas.
    """

    __slots__ = ("canvas", "model", "tech", "index", "values", "streak",
                 "_filled")

    def __init__(
        self, canvas: CanvasSpec, model: VariationModel, tech: Technology
    ):
        self.canvas = canvas
        self.model = model
        self.tech = tech
        self.index: dict[tuple, int] = {}
        self.values = np.empty((2, 0))
        self.streak = 0
        # The streak each (row, polarity) is filled up to.
        self._filled: dict[tuple[int, int], int] = {}

    def lookup(
        self, cells: list, runs: list, polarity: list[int]
    ) -> list[int]:
        """Columns in ``values`` of units on ``cells`` with ``polarity``,
        given the placement's :func:`~repro.layout.context
        .diffusion_runs`.

        Contexts the table lacks are filled first, in one model call.
        """
        index = self.index
        try:
            return [index[cell, runs[cell[1]][cell[0]], pol]
                    for cell, pol in zip(cells, polarity)]
        except KeyError:
            keys = [(cell, runs[cell[1]][cell[0]], pol)
                    for cell, pol in zip(cells, polarity)]
            self._fill(keys, runs)
            return [index[key] for key in keys]

    def _fill(self, keys: list, runs: list) -> None:
        """Fill the (row, polarity) pairs of the ``keys`` the table lacks
        up to the longest streak seen so far, ``runs`` included."""
        self.streak = max(self.streak, max(
            left + right + 1 for row in runs for left, right in row))
        # The (row, polarity) of every key the table lacks.
        missing = dict.fromkeys(
            (key[0][1], key[2]) for key in keys if key not in self.index)
        cols, lefts, rights, rows, pols = [], [], [], [], []
        for row, pol in missing:
            col, left, right = _run_pairs(
                self.canvas.cols, self._filled.get((row, pol), 0),
                self.streak)
            self._filled[row, pol] = self.streak
            cols.append(col)
            lefts.append(left)
            rights.append(right)
            rows.append(np.full(len(col), row))
            pols.append(np.full(len(col), pol))
        col, left, right, rows, polarity = map(
            np.concatenate, (cols, lefts, rights, rows, pols))
        x, y, dist = cell_geometry(
            col, rows, self.canvas.cols, self.canvas.rows, self.tech)
        start = self.values.shape[1]
        self.values = np.concatenate((self.values, self.model.systematic_units(
            x, y, left.astype(float), right.astype(float), dist, polarity)),
            axis=1)
        self.index.update(zip(
            zip(zip(col.tolist(), rows.tolist()),
                zip(left.tolist(), right.tolist()), polarity.tolist()),
            range(start, start + len(col))))


class PlacementEvaluator:
    """Simulation-backed objective for one analog block.

    Args:
        block: the circuit block being placed.
        tech: technology (defaults to the synthetic 40 nm node).
        variation: variation model; defaults to the calibrated non-linear
            model scaled to the block's canvas.
        cache_size: maximum number of memoised placements (LRU eviction).
        objective: preference weights conditioning the :meth:`cost`
            composition (see :class:`~repro.eval.objective
            .ObjectiveWeights`); ``None`` means the default vector,
            which reproduces the historical scalar cost bit for bit.
    """

    def __init__(
        self,
        block: AnalogBlock,
        tech: Technology | None = None,
        variation: VariationModel | None = None,
        cache_size: int = 50_000,
        objective: ObjectiveWeights | None = None,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be at least 1, got {cache_size}")
        self.block = block
        self.tech = tech if tech is not None else generic_tech_40()
        if variation is None:
            extent = max(block.canvas) * self.tech.grid_pitch
            variation = default_variation_model(canvas_extent=extent)
        self.variation = variation
        self.objective = objective if objective is not None else ObjectiveWeights()
        self.sim_count = 0
        self.cache_hits = 0
        self.sim_failures = 0
        self._cache: OrderedDict[tuple, Metrics] = OrderedDict()
        self._cache_size = cache_size
        self._warm: Warm = WarmStore()
        self._groups: tuple[frozenset, tuple] | None = None
        self._device_names = [m.name for m in block.circuit.mosfets()]
        self._tables: dict[CanvasSpec, _DeltaTable] = {}
        if block.kind not in SUITES:
            raise ValueError(f"no measurement suite for kind {block.kind!r}")
        self._suite = SUITES[block.kind]
        self._bench = None

    # ------------------------------------------------------------- pipeline

    def deltas_for(self, placement: Placement) -> dict[str, DeviceDelta]:
        """Variation-resolved parameter delta of every placeable device.

        The K=1 case of :meth:`deltas_for_many`: every unit's delta is a
        lookup in the evaluator's table of unit contexts, and each device
        takes the mean of its units' deltas.
        """
        return self._deltas_rows([placement])[0]

    def deltas_for_many(
        self, placements: Sequence[Placement]
    ) -> list[dict[str, DeviceDelta]]:
        """Variation deltas of K same-canvas candidate placements.

        Every unit of every candidate is keyed by its integer context
        (cell, diffusion runs, polarity); contexts none of the
        evaluator's earlier placements had are evaluated in one
        :meth:`VariationModel.systematic_units` call, and the rest are
        table lookups.  Per-placement results match :meth:`deltas_for`.

        Raises:
            ValueError: the placements lie on different canvases.
            KeyError: a device has no placed units.
        """
        return self._deltas_rows(list(placements))

    def _deltas_rows(
        self, placements: list[Placement]
    ) -> list[dict[str, DeviceDelta]]:
        """Per-placement device deltas from gathered unit deltas.

        A unit's systematic delta depends only on small integers — its
        cell, its left and right diffusion runs (from
        :func:`~repro.layout.context.diffusion_runs`) and its device's
        polarity — so the evaluator memoises it per context and canvas.
        Each device's delta is the mean of its units' deltas, taken in
        unit-index order (the order :meth:`VariationModel
        .systematic_device` averages in).
        """
        if not placements:
            return []
        canvas = placements[0].canvas
        if any(p.canvas != canvas for p in placements):
            raise ValueError("cannot batch placements on different canvases")
        table = self._delta_table(canvas)
        take: list[int] = []
        counts_rows = []
        for placement in placements:
            assignment = placement.as_dict()
            units, polarity, counts, starts = self._unit_groups(assignment)
            take += table.lookup(list(map(assignment.__getitem__, units)),
                                 diffusion_runs(placement), polarity)
            counts_rows.append(counts)
        k = len(placements)
        if k > 1:
            counts = np.concatenate(counts_rows)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # Rows reduce independently and bit for bit like 1-D arrays.
        dvth_mean, dbeta_mean = (
            np.add.reduceat(table.values[:, take], starts, axis=1) / counts
        ).tolist()

        names = self._device_names
        n = len(names)
        return [
            dict(zip(names, map(DeviceDelta, dvth_mean[lo:lo + n],
                                dbeta_mean[lo:lo + n])))
            for lo in range(0, n * k, n)
        ]

    def _delta_table(self, canvas: CanvasSpec) -> "_DeltaTable":
        table = self._tables.get(canvas)
        if table is None:
            table = self._tables[canvas] = _DeltaTable(
                canvas, self.variation, self.tech)
        return table

    def _unit_groups(
        self, assignment: Mapping
    ) -> tuple[list, list[int], np.ndarray, np.ndarray]:
        """Each MOSFET's placed units (in circuit order), by unit index.

        Returns ``(units, polarity, counts, starts)``: ``units`` lists the
        units device-major, ``polarity`` holds one entry per listed unit,
        ``counts`` the units per device and ``starts`` each device's
        first position in ``units``.  Every placement of a block holds
        the same units, so the result is kept for as long as the
        placements hold exactly the units it lists.

        Raises:
            KeyError: a device has no placed units.
        """
        if self._groups is not None and assignment.keys() == self._groups[0]:
            return self._groups[1]
        by_device: dict[str, list[int]] = {}
        for name, index in assignment:
            by_device.setdefault(name, []).append(index)
        units: list = []
        polarity: list[int] = []
        counts: list[int] = []
        for device in self.block.circuit.mosfets():
            indices = by_device.get(device.name)
            if not indices:
                raise KeyError(f"device {device.name!r} has no placed units")
            units.extend((device.name, index) for index in sorted(indices))
            polarity.extend([device.polarity] * len(indices))
            counts.append(len(indices))
        counts_arr = np.asarray(counts)
        starts = np.concatenate(([0], np.cumsum(counts_arr)[:-1]))
        groups = (units, polarity, counts_arr, starts)
        self._groups = (frozenset(assignment), groups)
        return groups

    def _penalty_metrics(self, placement: Placement) -> Metrics:
        """Finite-but-terrible metrics for a non-converging placement."""
        primary = {"cm": "mismatch_pct", "comp": "offset_mv",
                   "ota": "offset_mv"}[self.block.kind]
        return Metrics(
            kind=self.block.kind,
            primary=primary,
            values={primary: FAILURE_PRIMARY, "sim_failed": 1.0,
                    "area_um2": placement.area_cells()
                    * self.tech.cell_area() * 1e12},
        )

    def _benches(self):
        """The block's testbenches, built on the first simulation."""
        if self._bench is None:
            self._bench = BENCHES[self.block.kind](self.block, self.tech)
        return self._bench

    def _simulate(self, placement: Placement) -> Metrics:
        """One uncached pipeline pass (no cache or counter bookkeeping)."""
        deltas = self.deltas_for(placement)
        try:
            return self._suite(self._benches(), deltas, placement, self._warm)
        except ConvergenceError:
            self.sim_failures += 1
            return self._penalty_metrics(placement)

    def _store(self, key: tuple, metrics: Metrics) -> None:
        """Insert into the LRU cache, evicting only for genuinely new keys."""
        if key in self._cache:
            self._cache.move_to_end(key)
        elif len(self._cache) >= self._cache_size:
            self._cache.popitem(last=False)
        self._cache[key] = metrics

    def evaluate(self, placement: Placement) -> Metrics:
        """Metrics of a placement (memoised; counts a simulation on miss).

        A placement whose simulation fails to converge is not fatal: it
        gets penalty metrics (``FAILURE_PRIMARY`` on the headline metric,
        flag ``sim_failed = 1``) so optimizers steer away and keep
        running — failed candidates still count one simulation, exactly
        like a wasted Spectre run would.
        """
        key = placement.signature()
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        metrics = self._simulate(placement)
        self.sim_count += 1
        self._store(key, metrics)
        return metrics

    def evaluate_many(self, placements: Sequence[Placement]) -> list[Metrics]:
        """Metrics of K candidate placements, priced as one batch.

        Cache and counter semantics are exactly those of calling
        :meth:`evaluate` sequentially: already-cached placements (and
        duplicates within the batch) are cache hits, and every genuinely
        new placement counts one simulation.  The unique misses share one
        context pass each and then dispatch through the placement-batched
        suite on the evaluator's testbenches, so all their DC/AC solves
        run as stacked ``np.linalg.solve`` batches.

        If any placement of the batch fails to converge, the whole miss
        set is re-priced through the sequential path so that exactly the
        failing placements receive penalty metrics — identical outcomes
        to a sequential pass, at re-simulation cost only in the rare
        failure case.
        """
        placements = list(placements)
        out: list[Metrics | None] = [None] * len(placements)
        miss_positions: "OrderedDict[tuple, list[int]]" = OrderedDict()
        for i, placement in enumerate(placements):
            key = placement.signature()
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(key)
                out[i] = cached
            else:
                miss_positions.setdefault(key, []).append(i)
        if not miss_positions:
            return out  # type: ignore[return-value]

        reps = [placements[positions[0]]
                for positions in miss_positions.values()]
        if len(reps) == 1:
            metrics_list = [self._simulate(reps[0])]
        else:
            from repro.eval.batch_suites import BATCH_SUITES

            batch_suite = BATCH_SUITES[self.block.kind]
            deltas_seq = self.deltas_for_many(reps)
            try:
                metrics_list = batch_suite(
                    self._benches(), deltas_seq, reps, self._warm)
            except ConvergenceError:
                metrics_list = [self._simulate(p) for p in reps]

        for (key, positions), metrics in zip(
            miss_positions.items(), metrics_list
        ):
            self.sim_count += 1
            self._store(key, metrics)
            out[positions[0]] = metrics
            for extra in positions[1:]:
                self.cache_hits += 1
                out[extra] = metrics
        return out  # type: ignore[return-value]

    def _cost_of(self, placement: Placement, metrics: Metrics) -> float:
        weights = self.objective
        cost = weights.matching * metrics.primary_value
        area_weight = AREA_WEIGHT * weights.area
        if area_weight != 0:
            spread = placement.area_cells() / max(1, len(placement))
            cost = cost * (1.0 + area_weight * max(0.0, spread - 1.0))
        # Zero-weight additive terms are *skipped*, not added: this keeps
        # default-weight costs bit-identical to the historical scalar and
        # tolerates penalty metrics that lack the proxy values.
        if weights.noise:
            cost += weights.noise * float(metrics.values.get("power_w", 0.0))
        if weights.parasitics:
            cost += weights.parasitics * float(
                metrics.values.get("wirelength_um", 0.0))
        return cost

    def cost(self, placement: Placement) -> float:
        """Scalar objective (lower is better).

        The headline metric (mismatch %, offset mV) scaled by a mild area
        term: ``primary * (1 + w * (spread - 1))`` where ``spread`` is the
        bounding-box area per unit.  The area term keeps the optimizer
        from trading micro-improvements in mismatch for unbounded sprawl —
        the same role area plays in the paper's FOM.

        With non-default :class:`~repro.eval.objective.ObjectiveWeights`
        the composition is preference-conditioned: ``matching`` scales
        the headline term, ``area`` scales the area weight, and
        ``noise``/``parasitics`` add power and wirelength proxies.  The
        default vector reproduces the plain scalar cost bit for bit.
        """
        return self._cost_of(placement, self.evaluate(placement))

    def cost_many(self, placements: Sequence[Placement]) -> list[float]:
        """Scalar objectives of K candidates via one batched evaluation."""
        placements = list(placements)
        return [
            self._cost_of(placement, metrics)
            for placement, metrics in zip(
                placements, self.evaluate_many(placements))
        ]

    # ------------------------------------------------------------ utilities

    def clear_cache(self) -> None:
        """Drop memoised results (counters are kept)."""
        self._cache.clear()

    def clear_op_cache(self) -> None:
        """Drop the stored operating points, so the next evaluation of a
        placement solves its DC systems instead of reusing them."""
        self._warm.clear_library()

    def systematic_spread(self, placement: Placement) -> dict[str, float]:
        """Per-pair delta-V_th spread [V] — a diagnostic, not an objective.

        Useful in examples and ablations to show *why* a placement wins:
        the winning layouts equalise the field integral over each matched
        pair.
        """
        deltas = self.deltas_for(placement)
        out = {}
        for pair in self.block.pairs:
            out[f"{pair.a}/{pair.b}"] = abs(
                deltas[pair.a].dvth - deltas[pair.b].dvth
            )
        return out
