"""A rows binding is its rows' one-row rebinds, stacked, bit for bit.

A placement batch rebinds a testbench with one row per placement
(``CompiledSystem.rebind`` with a list of delta sets).  Every assembly
the batched drivers run on it — the full DC assembly, the residual-only
form, a subset of active rows, and the stacked AC solve — must give,
row by row, the exact bytes the scalar path gets from
``bench.rebind(deltas_i)``.  This runs on every bench of the five
library blocks and the eleven corpus decks, with random-walk
placements and random states.
"""

import numpy as np
import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.eval.suites import AC_FREQS
from repro.layout.generators import random_walk_placements
from repro.route.parasitics import parasitic_caps
from repro.service.corpus import corpus_registry

REGISTRY = corpus_registry()
ROWS = 6
SUBSET = [1, 3, 4]
OMEGAS = 2.0 * np.pi * AC_FREQS[::8]


def _benches(name):
    """``(bench name, binding, per-row capacitances or None)`` of one
    block's testbenches, with the placements' deltas."""
    block = REGISTRY.build(name)
    evaluator = PlacementEvaluator(block)
    placements = random_walk_placements(block, ROWS, seed=5)
    deltas = evaluator.deltas_for_many(placements)
    benches = evaluator._benches()
    out = []
    for attr in ("dc", "closed", "ac"):
        system = getattr(benches, attr, None)
        if system is None:
            continue
        caps = None
        if attr == "ac":
            caps = [benches.block_caps + list(parasitic_caps(
                block.circuit, p, evaluator.tech).values())
                for p in placements]
        out.append((attr, system, caps))
    return block, deltas, out


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_rows_binding_matches_one_row_rebinds(name):
    block, deltas, benches = _benches(name)
    rng = np.random.default_rng(11)
    for attr, bench, caps in benches:
        rows = bench.rebind(deltas, caps)
        singles = [bench.rebind(d, None if caps is None else caps[i])
                   for i, d in enumerate(deltas)]
        X = rng.normal(0.0, 0.6, (ROWS, bench.size))
        overrides = None
        if block.kind == "comp" and attr == "dc":
            vcm = block.params["vcm"]
            overrides = [{"vvip": vcm + 1e-3, "vvin": vcm - 1e-3}] * ROWS

        J, F = rows.assemble_dc(X, 1e-12, 1.0, overrides)
        none, F_only = rows.assemble_dc(
            X, 1e-12, 1.0, overrides, want_jacobian=False)
        assert none is None and _same(F_only, F), (name, attr)
        for i, single in enumerate(singles):
            Ji, Fi = single.assemble_dc(
                X[i:i + 1], 1e-12, 1.0, overrides and overrides[:1])
            assert _same(J[i], Ji[0]) and _same(F[i], Fi[0]), (name, attr, i)

        active = np.array(SUBSET)
        sub = overrides and overrides[:len(SUBSET)]
        Js, Fs = rows.assemble_dc(X[active], 1e-12, 1.0, sub, active=active)
        __, Fs_only = rows.assemble_dc(
            X[active], 1e-12, 1.0, sub, active=active, want_jacobian=False)
        assert _same(Fs_only, Fs)
        for j, i in enumerate(SUBSET):
            assert _same(Js[j], J[i]) and _same(Fs[j], F[i]), (name, attr, i)

        ops = [{net: float(X[i, k]) for net, k in bench.node_index.items()}
               for i in range(ROWS)]
        H = rows.solve_ac_batch(ops, OMEGAS)
        assert H.shape == (ROWS, len(OMEGAS), bench.size)
        for i, single in enumerate(singles):
            assert _same(H[i], single.solve_ac_batch(ops[i], OMEGAS)), (
                name, attr, i)


def test_rows_binding_checks_bias_count():
    __, deltas, benches = _benches("cm")
    rows = benches[0][1].rebind(deltas)
    with pytest.raises(ValueError, match="operating points"):
        rows.ac_matrices([{}] * (ROWS - 1))


def test_one_row_rebind_of_rows_binding_is_a_bench_rebind():
    __, deltas, benches = _benches("ota2s")
    for attr, bench, caps in benches:
        rows = bench.rebind(deltas, caps)
        again = rows.rebind(deltas[2])
        want = bench.rebind(deltas[2])
        assert again.rows is None
        X = np.full((1, bench.size), 0.3)
        for a, b in zip(again.assemble_dc(X), want.assemble_dc(X)):
            assert _same(a, b)
        assert _same(again._capacitances(), want._capacitances())
