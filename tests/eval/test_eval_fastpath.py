"""Bit-identity and cost contracts of the evaluation fast path.

* ``deltas_for`` is the K=1 case of ``deltas_for_many``, so one placement
  gets the same bits alone as inside a batch, and the same bits as the
  per-device context path;
* the tabulated deltas and the one-pass parasitic capacitances equal,
  bit for bit, a frozen copy of the raster-and-recompute front end
  (``frozen_front_end`` in the root ``conftest.py``) on every library
  block and corpus deck, under non-default variation models too;
* the delta table stays small on a wide, sparse canvas;
* mixed canvases and missing devices are rejected;
* the op cache's nearest-neighbour lookup equals a brute-force argmin
  over its entries in FIFO order, ties and evictions included;
* a comparator evaluation binds its clamped testbench once for its
  three DC solves.
"""

import math
import random
import struct
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.evaluator import PlacementEvaluator
from repro.eval.warm import _StageLibrary
from repro.layout.context import device_contexts, device_contexts_all
from repro.layout.generators import banded_placement, random_walk_placements
from repro.layout.placement import CanvasSpec, Placement
from repro.netlist.library import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.route.parasitics import annotate_parasitics, parasitic_caps
from repro.service.corpus import corpus_registry
from repro.sim import compiled
from repro.tech import generic_tech_40
from repro.variation import (
    CompositeField,
    DeviceDelta,
    default_variation_model,
)

BUILDERS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota5t": five_transistor_ota,
    "ota2s": two_stage_ota,
    "mirror_tree": lambda: corpus_registry().build("mirror_tree"),
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


#: The five library blocks and the 11 corpus decks.
ALL_BLOCKS = sorted(corpus_registry())


@lru_cache(maxsize=None)
def _block(name):
    return corpus_registry().build(name)


class _ValueOnlyField:
    """A third-party field: the scalar ``value()`` and no array method."""

    def value(self, x, y):
        return 1.5e-3 * math.sin(x * 7.0e5 + 0.3) * math.cos(y * 4.0e5)


MODELS = ("nonlinear", "linear", "none", "no_lde", "value_only")


def _model(kind, block, tech):
    extent = max(block.canvas) * tech.grid_pitch
    if kind == "no_lde":
        return default_variation_model(extent, with_lde=False)
    if kind != "value_only":
        return default_variation_model(extent, kind=kind)
    base = default_variation_model(extent)
    return replace(
        base,
        vth_field=CompositeField((base.vth_field, _ValueOnlyField())),
        beta_field=CompositeField((_ValueOnlyField(),)),
    )


def _reinserted(placement, rng):
    """The same placement with its units placed in shuffled order."""
    items = list(placement.as_dict().items())
    rng.shuffle(items)
    out = Placement(placement.canvas)
    for unit, cell in items:
        out.place(unit, cell)
    return out


def _float_bits(values):
    return {key: struct.pack("<d", value) for key, value in values.items()}


@pytest.mark.parametrize("name", ALL_BLOCKS)
@given(kind=st.sampled_from(MODELS),
       style=st.sampled_from(("sequential", "ysym", "common_centroid")),
       seed=st.integers(0, 2**16), order_seed=st.integers(0, 2**16))
@settings(max_examples=5, deadline=None)
def test_front_end_matches_frozen_copy_bitwise(
        frozen_front_end, name, kind, style, seed, order_seed):
    frozen_deltas, frozen_caps = frozen_front_end
    block = _block(name)
    tech = generic_tech_40()
    evaluator = PlacementEvaluator(
        block, tech=tech, variation=_model(kind, block, tech))
    walk = random_walk_placements(block, 8, style=style, seed=seed)
    for placement in walk:
        assert _bits(evaluator.deltas_for(placement)) == _bits(
            frozen_deltas(evaluator, placement))
        want = _float_bits(frozen_caps(block.circuit, placement, tech))
        got = parasitic_caps(block.circuit, placement, tech)
        assert list(got) == list(want)
        assert _float_bits(got) == want
        annotated = annotate_parasitics(block.circuit, placement, tech)
        assert _float_bits({
            device.name[len("cpar_"):]: device.value
            for device in annotated if device.name.startswith("cpar_")
        }) == want

    rng = random.Random(order_seed)
    batch = [_reinserted(p, rng) for p in walk]
    # Every context is in the table by now, and a fresh evaluator prices
    # the whole batch's contexts in one model call: both agree bitwise.
    fresh = PlacementEvaluator(block, tech=tech, variation=evaluator.variation)
    for rows in (evaluator.deltas_for_many(batch),
                 fresh.deltas_for_many(batch)):
        assert len(rows) == len(batch)
        for placement, row in zip(batch, rows):
            assert _bits(row) == _bits(frozen_deltas(evaluator, placement))


def test_deltas_for_many_rejects_mixed_canvases():
    block = current_mirror()
    evaluator = PlacementEvaluator(block)
    placement = banded_placement(block, "ysym")
    wider = Placement(CanvasSpec(placement.canvas.cols + 1,
                                 placement.canvas.rows))
    for unit, cell in placement.as_dict().items():
        wider.place(unit, cell)
    with pytest.raises(ValueError, match="different canvases"):
        evaluator.deltas_for_many([placement, wider])


def test_deltas_for_names_a_device_without_units():
    block = current_mirror()
    evaluator = PlacementEvaluator(block)
    full = banded_placement(block, "ysym")
    missing = block.circuit.mosfets()[-1].name
    partial = Placement(full.canvas)
    for unit, cell in full.as_dict().items():
        if unit[0] != missing:
            partial.place(unit, cell)
    evaluator.deltas_for(full)
    with pytest.raises(KeyError, match=repr(missing)):
        evaluator.deltas_for(partial)


def test_delta_table_stays_small_on_a_wide_sparse_canvas(frozen_front_end):
    """A 100-column canvas holds up to 171,700 (cell, runs) pairs per row
    and polarity; the table keeps only those whose streak fits the
    longest streak a row has had."""
    frozen_deltas, __ = frozen_front_end
    block = current_mirror()
    evaluator = PlacementEvaluator(block)
    banded = banded_placement(block, "ysym")
    wide = CanvasSpec(100, banded.canvas.rows)
    for shift in (0, 46, 100 - banded.canvas.cols):
        placement = Placement(wide)
        for unit, (col, row) in banded.as_dict().items():
            placement.place(unit, (col + shift, row))
        assert _bits(evaluator.deltas_for(placement)) == _bits(
            frozen_deltas(evaluator, placement))
    streak = banded.canvas.cols
    bound = wide.rows * 2 * wide.cols * streak * (streak + 1) // 2
    assert len(evaluator._tables[wide].index) <= bound


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
    """A comparator evaluation builds no binding: its three solves share
    one rebinding of the clamped bench the evaluator built once."""
    block = comparator()
    evaluator = PlacementEvaluator(block)
    placement = banded_placement(block, "ysym")
    evaluator.evaluate(banded_placement(block, "sequential"))  # warm start
    binds, rebinds = [], []
    original = compiled.CompiledSystem.__init__
    original_rebind = compiled.CompiledSystem.rebind

    def counting(self, *args, **kwargs):
        binds.append(1)
        original(self, *args, **kwargs)

    def counting_rebind(self, *args, **kwargs):
        rebinds.append(1)
        return original_rebind(self, *args, **kwargs)

    monkeypatch.setattr(compiled.CompiledSystem, "__init__", counting)
    monkeypatch.setattr(compiled.CompiledSystem, "rebind", counting_rebind)
    before = evaluator.sim_count
    evaluator.evaluate(placement)
    assert evaluator.sim_count == before + 1
    assert len(binds) == 0
    assert len(rebinds) == 1
