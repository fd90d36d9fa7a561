"""The :class:`PlacementEvaluator` — the objective the optimizers query.

This object closes the loop the paper draws in Fig. 2(c): a candidate
placement goes in; unit contexts are derived; the variation model turns
them into per-device parameter deltas; routing parasitics are estimated
and annotated; the right measurement suite simulates the result; metrics
come out.  It also owns the two pieces of bookkeeping the experiments
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

from repro.eval.batch_suites import BATCH_SUITES
from repro.eval.metrics import Metrics
from repro.eval.objective import ObjectiveWeights
from repro.eval.suites import SUITES, Warm
from repro.eval.warm import WarmStore
from repro.layout.context import unit_context_arrays
from repro.layout.placement import Placement
from repro.netlist.library import AnalogBlock
from repro.route.parasitics import annotate_parasitics
from repro.sim.dc import ConvergenceError
from repro.tech import Technology, generic_tech_40
from repro.variation import DeviceDelta, VariationModel, default_variation_model

# Headline-metric value assigned to placements whose simulation fails to
# converge: bad enough that no optimizer keeps them, finite enough that
# rewards and FOMs stay well-defined.
FAILURE_PRIMARY = 1.0e6


class PlacementEvaluator:
    """Simulation-backed objective for one analog block.

    Args:
        block: the circuit block being placed.
        tech: technology (defaults to the synthetic 40 nm node).
        variation: variation model; defaults to the calibrated non-linear
            model scaled to the block's canvas.
        cost_area_weight: strength of the multiplicative area term in
            :meth:`cost` (0 disables it).
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
        cost_area_weight: float = 0.05,
        cache_size: int = 50_000,
        objective: ObjectiveWeights | None = None,
    ):
        if cost_area_weight < 0:
            raise ValueError("cost_area_weight cannot be negative")
        self.block = block
        self.tech = tech if tech is not None else generic_tech_40()
        if variation is None:
            extent = max(block.canvas) * self.tech.grid_pitch
            variation = default_variation_model(canvas_extent=extent)
        self.variation = variation
        self.cost_area_weight = cost_area_weight
        self.objective = objective if objective is not None else ObjectiveWeights()
        self.sim_count = 0
        self.cache_hits = 0
        self.sim_failures = 0
        self._cache: OrderedDict[tuple, Metrics] = OrderedDict()
        self._cache_size = cache_size
        self._warm: Warm = WarmStore()
        self._groups_units: list | None = None
        self._groups: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        if block.kind not in SUITES:
            raise ValueError(f"no measurement suite for kind {block.kind!r}")
        self._suite = SUITES[block.kind]

    # ------------------------------------------------------------- pipeline

    def deltas_for(self, placement: Placement) -> dict[str, DeviceDelta]:
        """Variation-resolved parameter delta of every placeable device.

        The K=1 case of :meth:`deltas_for_many`: all units' contexts and
        the variation model evaluate as flat arrays in one pass.
        """
        return self._deltas_rows([placement])[0]

    def deltas_for_many(
        self, placements: Sequence[Placement]
    ) -> list[dict[str, DeviceDelta]]:
        """Variation deltas of K candidate placements in one fused pass.

        One stacked occupancy-grid pass derives every unit context and one
        vectorized variation-model evaluation covers all units of all
        candidates; per-placement results match :meth:`deltas_for`.
        """
        return self._deltas_rows(list(placements))

    def _deltas_rows(
        self, placements: list[Placement]
    ) -> list[dict[str, DeviceDelta]]:
        """Per-placement device deltas from flat unit-context arrays.

        Each device's delta is the mean of its units' deltas, taken in
        unit-index order (the order :meth:`VariationModel
        .systematic_device` averages in).
        """
        if not placements:
            return []
        mosfets = self.block.circuit.mosfets()
        units_lists, x, y, run_l, run_r, dist = unit_context_arrays(
            placements, self.tech
        )
        # Unit orders may differ between placements, but every placement
        # of the block has the same units per device, so the counts and
        # polarities of any one of them serve the whole batch.
        perms = []
        offset = 0
        for units in units_lists:
            order, counts, polarity = self._unit_groups(units, mosfets)
            perms.append(order + offset if offset else order)
            offset += len(units)
        take = perms[0] if len(perms) == 1 else np.concatenate(perms)
        k = len(placements)
        dvth, dbeta = self.variation.systematic_units(
            x[take], y[take], run_l[take], run_r[take], dist[take],
            np.tile(polarity, k) if k > 1 else polarity,
        )
        counts_arr = np.tile(counts, k) if k > 1 else counts
        starts = np.concatenate(([0], np.cumsum(counts_arr)[:-1]))
        dvth_mean = (np.add.reduceat(dvth, starts) / counts_arr).tolist()
        dbeta_mean = (np.add.reduceat(dbeta, starts) / counts_arr).tolist()

        names = [device.name for device in mosfets]
        n = len(names)
        return [
            dict(zip(names, map(DeviceDelta, dvth_mean[lo:lo + n],
                                dbeta_mean[lo:lo + n])))
            for lo in range(0, n * k, n)
        ]

    def _unit_groups(
        self, units: list, mosfets
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Device-major, unit-index-sorted positions into ``units``.

        Returns ``(order, counts, polarity)``: ``units[order]`` lists each
        MOSFET's units (in circuit order) by unit index, ``counts`` the
        units per device and ``polarity`` one entry per ordered unit.
        Placements copied from one another keep their unit order, so the
        result is kept for the last order seen.

        Raises:
            KeyError: a device has no placed units.
        """
        if units != self._groups_units:
            by_device: dict[str, list[tuple[int, int]]] = {}
            for i, (name, k) in enumerate(units):
                by_device.setdefault(name, []).append((k, i))
            order: list[int] = []
            counts: list[int] = []
            polarity: list[int] = []
            for device in mosfets:
                entries = by_device.get(device.name)
                if not entries:
                    raise KeyError(
                        f"device {device.name!r} has no placed units")
                entries.sort()
                order.extend(i for __, i in entries)
                counts.append(len(entries))
                polarity.extend([device.polarity] * len(entries))
            self._groups = (np.asarray(order, dtype=np.intp),
                            np.asarray(counts), np.asarray(polarity))
            self._groups_units = units
        return self._groups

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

    def _simulate(self, placement: Placement) -> Metrics:
        """One uncached pipeline pass (no cache or counter bookkeeping)."""
        deltas = self.deltas_for(placement)
        annotated = annotate_parasitics(self.block.circuit, placement, self.tech)
        try:
            return self._suite(
                self.block, annotated, deltas, self.tech, placement,
                self._warm
            )
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
        context + parasitics pass each and then dispatch through the
        placement-batched suite, so all their DC/AC solves run as stacked
        ``np.linalg.solve`` batches.

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
            batch_suite = BATCH_SUITES[self.block.kind]
            deltas_seq = self.deltas_for_many(reps)
            annotated = [
                annotate_parasitics(self.block.circuit, p, self.tech)
                for p in reps
            ]
            try:
                metrics_list = batch_suite(
                    self.block, annotated, deltas_seq, self.tech, reps,
                    self._warm,
                )
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
        area_weight = self.cost_area_weight * weights.area
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

    def reset_counters(self) -> None:
        """Zero the simulation/cache counters (cache content is kept)."""
        self.sim_count = 0
        self.cache_hits = 0
        self.sim_failures = 0

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
