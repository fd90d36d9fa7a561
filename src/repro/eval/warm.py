"""Cross-placement operating-point warm starts (the evaluator's op cache).

Two structural facts make aggressive reuse safe here:

* routing parasitics are *capacitors only*
  (:mod:`repro.route.parasitics`), and capacitors are open circuits at
  DC — the DC testbenches do not even carry them — so the operating
  point of a testbench depends on its variation deltas alone, not on
  placement geometry.  Two placements whose deltas match exactly have
  bit-identical DC solutions;
* every placement of a block is solved on the same testbench (bound
  once per evaluator, rebound per placement), so solution vectors from
  one placement index-align with all others.

:class:`WarmStore` exploits both.  Per testbench stage (``"cm"``,
``"ota"``, ``"comp/balanced"``, ...) it keeps a bounded library of
(delta-feature vector, converged :class:`~repro.sim.dc.DcResult`) pairs.
An exact feature match returns the stored result outright — no solve at
all; otherwise the nearest library entry in delta space seeds Newton,
which then typically converges in a third of the cold iterations.

It subclasses ``dict`` and leaves the plain ``warm[key] = result.x``
last-solution protocol to the suites, so the measurement code runs
unchanged against a plain dict (and byte-identically to the pre-cache
behavior); the library kicks in only when the evaluator passes a
WarmStore, which it always does.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.sim.dc import DcResult
from repro.sim.fastpath import STATS
from repro.variation import DeviceDelta

#: Entries each testbench stage's library keeps (oldest evicted first).
LIBRARY_SIZE = 64


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
    """Bounded FIFO of (features, result) pairs for one testbench stage.

    ``entries`` maps feature tokens to results for exact lookups; the
    feature stack and the result list mirror it in FIFO order and are
    kept up to date on every store, so a nearest lookup is one distance
    pass plus an ``argmin`` that breaks ties towards the oldest entry.
    """

    __slots__ = ("entries", "_stack", "_results")

    def __init__(self) -> None:
        self.entries: "OrderedDict[bytes, DcResult]" = OrderedDict()
        self._stack: np.ndarray | None = None
        self._results: list[DcResult] = []

    def exact(self, token: bytes) -> DcResult | None:
        return self.entries.get(token)

    def nearest(self, feats: np.ndarray) -> DcResult | None:
        """Entry closest to ``feats`` in (Euclidean) delta space."""
        if not self._results:
            return None
        diff = self._stack - feats
        return self._results[int(np.argmin(np.einsum("ij,ij->i", diff, diff)))]

    def add(
        self, token: bytes, feats: np.ndarray, result: DcResult, limit: int
    ) -> None:
        entries = self.entries
        if token in entries:
            # Same features: the newer result keeps the entry's FIFO slot.
            self._results[list(entries).index(token)] = result
            entries[token] = result
            return
        stack = self._stack
        if len(entries) >= limit:
            entries.popitem(last=False)
            del self._results[0]
            stack = stack[1:]
        entries[token] = result
        self._results.append(result)
        row = feats[None, :]
        self._stack = row if stack is None else np.concatenate((stack, row))


class WarmStore(dict):
    """Per-stage operating-point library on top of the plain warm dict."""

    def __init__(self) -> None:
        super().__init__()
        self._library: dict[str, _StageLibrary] = {}

    # ------------------------------------------------------------- seeding

    def seed(
        self, stage: str, feats: np.ndarray
    ) -> tuple[DcResult | None, np.ndarray | None]:
        """Best prior knowledge for a solve at ``feats``.

        Returns ``(exact, x0)``: ``exact`` is a reusable converged result
        (identical deltas), ``x0`` a nearest-neighbour Newton seed.  At
        most one is non-None; both are None on a cold stage (callers
        then fall back to the legacy shared last-solution vector).
        """
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
        library = self._library.get(stage)
        if library is None:
            library = self._library[stage] = _StageLibrary()
        library.add(feats.tobytes(), feats, result, LIBRARY_SIZE)

    def clear_library(self) -> None:
        """Drop cached operating points (plain warm vectors are kept)."""
        self._library.clear()


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

