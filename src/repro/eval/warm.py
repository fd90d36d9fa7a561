"""Cross-placement operating-point warm starts (the evaluator's op cache).

Two structural facts make aggressive reuse safe here:

* parasitic annotation adds *capacitors only*
  (:mod:`repro.route.parasitics`), and capacitors are open circuits at
  DC — so the operating point of a testbench depends on its variation
  deltas alone, not on placement geometry.  Two placements whose deltas
  match exactly have bit-identical DC solutions;
* every placement of a block shares one compiled-topology structure
  signature, so solution vectors from one placement index-align with all
  others.

:class:`WarmStore` exploits both.  Per testbench stage (``"cm"``,
``"ota"``, ``"comp/balanced"``, ...) it keeps a bounded library of
(delta-feature vector, converged :class:`~repro.sim.dc.DcResult`) pairs.
An exact feature match returns the stored result outright — no solve at
all; otherwise the nearest library entry in delta space seeds Newton,
which then typically converges in a third of the cold iterations.  The
store also binds each stage's testbench against its cached compiled
topology (:meth:`WarmStore.system_for`), the one place the suites obtain
an assembler.

It subclasses ``dict`` and leaves the plain ``warm[key] = result.x``
last-solution protocol to the suites, so the measurement code runs
unchanged against a plain dict (and byte-identically to the pre-cache
behavior); the library kicks in only when the evaluator passes a
WarmStore and the ``op_cache`` tuning knob is on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.circuit import Circuit
from repro.sim.compiled import CompiledSystem, compiled_topology
from repro.sim.dc import DcResult
from repro.sim.fastpath import STATS, get_solver_tuning
from repro.tech import Technology
from repro.variation import DeviceDelta


def dc_features(deltas: Mapping[str, DeviceDelta] | None) -> np.ndarray:
    """The delta-space coordinates of one placement's DC system.

    Sorted by device name so the vector is placement-order independent;
    (dvth, dbeta_rel) pairs are the only quantities the DC stamps read.
    """
    if not deltas:
        return np.empty(0)
    out = np.empty(2 * len(deltas))
    for i, name in enumerate(sorted(deltas)):
        delta = deltas[name]
        out[2 * i] = delta.dvth
        out[2 * i + 1] = delta.dbeta_rel
    return out


class _StageLibrary:
    """Bounded FIFO of (features, result) pairs for one testbench stage."""

    __slots__ = ("entries", "_stack")

    def __init__(self) -> None:
        self.entries: "OrderedDict[bytes, tuple[np.ndarray, DcResult]]" = (
            OrderedDict()
        )
        self._stack: np.ndarray | None = None

    def exact(self, token: bytes) -> DcResult | None:
        entry = self.entries.get(token)
        return entry[1] if entry is not None else None

    def nearest(self, feats: np.ndarray) -> DcResult | None:
        """Entry closest to ``feats`` in (Euclidean) delta space."""
        if not self.entries:
            return None
        if self._stack is None:
            self._stack = np.stack([f for f, __ in self.entries.values()])
        diff = self._stack - feats
        idx = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
        for i, (__, result) in enumerate(self.entries.values()):
            if i == idx:
                return result
        return None  # pragma: no cover - loop always reaches idx

    def add(
        self, token: bytes, feats: np.ndarray, result: DcResult, limit: int
    ) -> None:
        if token not in self.entries and len(self.entries) >= limit:
            self.entries.popitem(last=False)
        self.entries[token] = (feats, result)
        self._stack = None


class WarmStore(dict):
    """Per-stage operating-point library on top of the plain warm dict."""

    def __init__(self) -> None:
        super().__init__()
        self._library: dict[str, _StageLibrary] = {}
        self._geometry: "OrderedDict[tuple, dict]" = OrderedDict()

    # ------------------------------------------------------------- seeding

    def seed(
        self, stage: str, feats: np.ndarray
    ) -> tuple[DcResult | None, np.ndarray | None]:
        """Best prior knowledge for a solve at ``feats``.

        Returns ``(exact, x0)``: ``exact`` is a reusable converged result
        (identical deltas), ``x0`` a nearest-neighbour Newton seed.  At
        most one is non-None; both are None on a cold stage or with the
        cache disabled (callers then fall back to the legacy shared
        last-solution vector).
        """
        if not get_solver_tuning().op_cache:
            return None, None
        library = self._library.get(stage)
        if library is None:
            STATS.warm_misses += 1
            return None, None
        exact = library.exact(feats.tobytes())
        if exact is not None:
            STATS.warm_exact_hits += 1
            return exact, None
        near = library.nearest(feats)
        if near is not None:
            STATS.warm_near_hits += 1
            return None, near.x
        STATS.warm_misses += 1
        return None, None

    def store(self, stage: str, feats: np.ndarray, result: DcResult) -> None:
        """Record a converged solve for future seeding."""
        tuning = get_solver_tuning()
        if not tuning.op_cache:
            return
        library = self._library.get(stage)
        if library is None:
            library = self._library[stage] = _StageLibrary()
        library.add(feats.tobytes(), feats, result, tuning.op_cache_size)

    def clear_library(self) -> None:
        """Drop cached operating points (plain warm vectors are kept)."""
        self._library.clear()
        self._geometry.clear()

    # ------------------------------------------------------------ geometry

    def geometry(self, placement, compute) -> dict:
        """Geometry metrics of ``placement``, computed at most once.

        Area and wirelength depend only on the placement (never on the
        variation deltas), yet the suites are called once per variation
        sample — this caches the values per placement signature.  The
        returned dict is the cached object; callers copy entries out
        (``values.update``) and must not mutate it.
        """
        tuning = get_solver_tuning()
        if not tuning.op_cache:
            return compute()
        key = placement.signature()
        cached = self._geometry.get(key)
        if cached is None:
            cached = compute()
            if len(self._geometry) >= tuning.op_cache_size:
                self._geometry.popitem(last=False)
            self._geometry[key] = cached
        return cached

    # ------------------------------------------------------------- binding

    def system_for(
        self,
        stage: str,
        circuit: Circuit,
        tech: Technology,
        deltas: Mapping[str, DeviceDelta] | None,
    ) -> CompiledSystem:
        """A compiled binding of ``circuit`` for the ``stage`` testbench.

        All placements of a block share one topology per testbench
        variant (the global topology LRU guarantees it), so repeat
        evaluations bind against the already-compiled structure.
        """
        return compiled_topology(circuit).bind(circuit, tech, deltas)


# ---------------------------------------------------- plain-dict-safe helpers


def seed_dc(
    warm, stage: str, feats: np.ndarray
) -> tuple[DcResult | None, np.ndarray | None]:
    """:meth:`WarmStore.seed`, or ``(None, None)`` for a plain dict."""
    if isinstance(warm, WarmStore):
        return warm.seed(stage, feats)
    return None, None


def seed_dc_rows(
    warm, stage: str, feats_rows: Sequence[np.ndarray]
) -> list[tuple[DcResult | None, np.ndarray | None]]:
    """Per-row seeds for a placement batch (aligned with ``feats_rows``)."""
    if isinstance(warm, WarmStore):
        return [warm.seed(stage, feats) for feats in feats_rows]
    return [(None, None)] * len(feats_rows)


def store_dc(warm, stage: str, feats: np.ndarray, result: DcResult) -> None:
    """:meth:`WarmStore.store`; no-op for a plain dict."""
    if isinstance(warm, WarmStore):
        warm.store(stage, feats, result)


def geometry_for(warm, placement, compute) -> dict:
    """:meth:`WarmStore.geometry`; computes directly for a plain dict."""
    if isinstance(warm, WarmStore):
        return warm.geometry(placement, compute)
    return compute()


def bind_system(
    warm,
    stage: str,
    circuit: Circuit,
    tech: Technology,
    deltas: Mapping[str, DeviceDelta] | None,
) -> CompiledSystem | None:
    """:meth:`WarmStore.system_for`; None for a plain dict."""
    if isinstance(warm, WarmStore):
        return warm.system_for(stage, circuit, tech, deltas)
    return None
