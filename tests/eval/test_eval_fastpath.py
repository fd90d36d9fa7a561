"""Bit-identity and cost contracts of the evaluation fast path.

* ``deltas_for`` is the K=1 case of ``deltas_for_many``'s array path, so
  one placement gets the same bits alone as inside a batch, and the same
  bits as the per-device context path it replaced;
* the op cache's nearest-neighbour lookup equals a brute-force argmin
  over its entries in FIFO order, ties and evictions included;
* a comparator evaluation binds its clamped testbench once for its
  three DC solves.
"""

import struct

import numpy as np
import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.eval.warm import _StageLibrary
from repro.layout.context import device_contexts, device_contexts_all
from repro.layout.generators import banded_placement, random_walk_placements
from repro.netlist.library import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.service.corpus import corpus_registry
from repro.sim import compiled
from repro.variation import DeviceDelta

BUILDERS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota5t": five_transistor_ota,
    "ota2s": two_stage_ota,
    "mirror_tree": lambda: corpus_registry().builders["mirror_tree"](),
}


def _bits(deltas):
    """Deltas as raw float64 bit patterns, for exact comparison."""
    return {
        name: (struct.pack("<d", d.dvth), struct.pack("<d", d.dbeta_rel))
        for name, d in deltas.items()
    }


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_deltas_for_is_deltas_for_many_row_bitwise(kind):
    block = BUILDERS[kind]()
    evaluator = PlacementEvaluator(block)
    placements = [
        banded_placement(block, style)
        for style in ("sequential", "ysym", "common_centroid")
    ] + random_walk_placements(block, 4, style="ysym", seed=3)
    many = evaluator.deltas_for_many(placements)
    assert len(many) == len(placements)
    for placement, row in zip(placements, many):
        alone = evaluator.deltas_for(placement)
        assert list(alone) == [m.name for m in block.circuit.mosfets()]
        assert _bits(alone) == _bits(row)


def _context_path_deltas(evaluator, placement):
    """Device deltas the way ``deltas_for`` used to build them: unit
    contexts grouped per device, one vectorized model pass over all of
    them, then per-device means."""
    grouped = device_contexts_all(placement, evaluator.tech)
    mosfets = evaluator.block.circuit.mosfets()
    flat = [ctx for m in mosfets for ctx in grouped[m.name]]
    counts = np.array([len(grouped[m.name]) for m in mosfets])
    dvth, dbeta = evaluator.variation.systematic_units(
        np.array([c.x for c in flat]),
        np.array([c.y for c in flat]),
        np.array([c.run_left for c in flat], dtype=float),
        np.array([c.run_right for c in flat], dtype=float),
        np.array([c.dist_to_edge for c in flat]),
        np.repeat([m.polarity for m in mosfets], counts),
    )
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return {
        m.name: DeviceDelta(float(v), float(b))
        for m, v, b in zip(mosfets,
                           np.add.reduceat(dvth, starts) / counts,
                           np.add.reduceat(dbeta, starts) / counts)
    }


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_deltas_for_matches_the_context_path(kind):
    block = BUILDERS[kind]()
    evaluator = PlacementEvaluator(block)
    placements = [
        banded_placement(block, style)
        for style in ("sequential", "ysym", "common_centroid")
    ] + random_walk_placements(block, 3, style="ysym", seed=5)
    for placement in placements:
        deltas = evaluator.deltas_for(placement)
        assert _bits(deltas) == _bits(
            _context_path_deltas(evaluator, placement))
        # And per device, the scalar model's unit-by-unit average.
        for m in block.circuit.mosfets():
            want = evaluator.variation.systematic_device(
                device_contexts(placement, m.name, evaluator.tech),
                m.polarity)
            got = deltas[m.name]
            assert got.dvth == pytest.approx(want.dvth, rel=1e-12, abs=1e-15)
            assert got.dbeta_rel == pytest.approx(
                want.dbeta_rel, rel=1e-12, abs=1e-15)


class _Result:
    """Stand-in for a DcResult: the library only stores and returns it."""

    def __init__(self, tag):
        self.tag = tag


def _brute_nearest(fifo, feats):
    """First entry (oldest first) at the minimum squared distance."""
    best, best_d = None, None
    for stored, result in fifo:
        diff = stored - feats
        d = float(np.einsum("i,i->", diff, diff))
        if best_d is None or d < best_d:
            best, best_d = result, d
    return best


def test_nearest_matches_brute_force_fifo_argmin():
    rng = np.random.default_rng(7)
    library = _StageLibrary()
    fifo: list = []  # (feats, result) in insertion order
    limit = 5
    assert library.nearest(np.zeros(3)) is None
    for step in range(120):
        # Integer-grid features make exact distance ties common.
        feats = rng.integers(-2, 3, size=3).astype(float)
        result = _Result(step)
        token = feats.tobytes()
        library.add(token, feats, result, limit)
        for i, (stored, __) in enumerate(fifo):
            if stored.tobytes() == token:
                fifo[i] = (stored, result)
                break
        else:
            if len(fifo) >= limit:
                fifo.pop(0)
            fifo.append((feats, result))
        assert list(library.entries) == [f.tobytes() for f, __ in fifo]
        for query in (feats, rng.integers(-2, 3, size=3) + 0.5,
                      rng.normal(size=3)):
            assert library.nearest(query) is _brute_nearest(fifo, query)


def test_comp_evaluate_binds_once(monkeypatch):
    block = comparator()
    evaluator = PlacementEvaluator(block)
    placement = banded_placement(block, "ysym")
    evaluator.evaluate(banded_placement(block, "sequential"))  # warm start
    binds = []
    original = compiled.CompiledSystem.__init__

    def counting(self, *args, **kwargs):
        binds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(compiled.CompiledSystem, "__init__", counting)
    before = evaluator.sim_count
    evaluator.evaluate(placement)
    assert evaluator.sim_count == before + 1
    assert len(binds) == 1
