"""Placement-batched solves vs the sequential compiled path.

For every library block we build K placement variants — different
parasitic annotations and different variation deltas, identical structure
— bind them as the rows of one binding, and check that the batched
drivers (`solve_dc_many` / `solve_ac_many`) agree with the scalar
compiled path placement-for-placement to ≤ 1e-10.  This is the contract
that lets the evaluator price candidate batches without changing a
single metric.
"""

import numpy as np
import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.layout.generators import banded_placement
from repro.netlist.devices import Capacitor
from repro.netlist.library import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.route.parasitics import annotate_parasitics
from repro.sim import batch as sim_batch
from repro.sim import (
    compiled_system,
    logspace_frequencies,
    solve_ac,
    solve_ac_many,
    solve_dc,
    solve_dc_many,
)
from repro.tech import generic_tech_40

BUILDERS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota5t": five_transistor_ota,
    "ota2s": two_stage_ota,
}
STYLES = ("sequential", "ysym", "common_centroid")
FREQS = logspace_frequencies(1e4, 1e9, points_per_decade=3)
TOL = 1e-10


@pytest.fixture(scope="module")
def batches():
    """kind → (circuits, deltas_list, tech) for K=3 placement variants."""
    tech = generic_tech_40()
    out = {}
    for kind, builder in BUILDERS.items():
        block = builder()
        evaluator = PlacementEvaluator(block, tech=tech)
        circuits, deltas_list = [], []
        for style in STYLES:
            placement = banded_placement(block, style)
            circuits.append(
                annotate_parasitics(block.circuit, placement, tech))
            deltas_list.append(evaluator.deltas_for(placement))
        out[kind] = (circuits, deltas_list, tech)
    return out


def _rows(circuits, deltas_list, tech):
    """The first circuit's binding rebound with one row per circuit: its
    deltas and its (parasitic) capacitor values."""
    caps = [[d.value for d in c if isinstance(d, Capacitor)]
            for c in circuits]
    return compiled_system(circuits[0], tech).rebind(deltas_list, caps)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_dc_many_matches_sequential(batches, kind):
    circuits, deltas_list, tech = batches[kind]
    batch = solve_dc_many(_rows(circuits, deltas_list, tech))
    for circuit, deltas, got in zip(circuits, deltas_list, batch):
        want = solve_dc(circuit, tech, deltas=deltas)
        assert set(got.voltages) == set(want.voltages)
        for net, v in want.voltages.items():
            assert got.voltages[net] == pytest.approx(v, abs=TOL, rel=TOL)
        for name, i in want.branch_currents.items():
            assert got.branch_currents[name] == pytest.approx(
                i, abs=TOL, rel=TOL)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_ac_many_matches_sequential(batches, kind):
    circuits, deltas_list, tech = batches[kind]
    ops = [solve_dc(c, tech, deltas=d).voltages
           for c, d in zip(circuits, deltas_list)]
    batch = solve_ac_many(_rows(circuits, deltas_list, tech), ops, FREQS)
    for circuit, op, deltas, got in zip(circuits, ops, deltas_list, batch):
        want = solve_ac(circuit, tech, op, FREQS, deltas=deltas)
        for net in circuit.nets():
            np.testing.assert_allclose(
                got.transfer(net), want.transfer(net), atol=TOL, rtol=TOL)


def test_warm_start_accepted_per_row_and_shared(batches):
    circuits, deltas_list, tech = batches["cm"]
    rows = _rows(circuits, deltas_list, tech)
    cold = solve_dc_many(rows)
    shared = solve_dc_many(rows, x0=cold[0].x)
    per_row = solve_dc_many(rows, x0=[r.x for r in cold])
    for a, b, c in zip(cold, shared, per_row):
        for net, v in a.voltages.items():
            assert b.voltages[net] == pytest.approx(v, abs=TOL, rel=TOL)
            assert c.voltages[net] == pytest.approx(v, abs=TOL, rel=TOL)


def test_unconverged_row_falls_back_to_its_scalar_rebind(batches, monkeypatch):
    circuits, deltas_list, tech = batches["comp"]
    rows = _rows(circuits, deltas_list, tech)
    newton_many = sim_batch._newton_many

    def drop_row_1(*args):
        X, iters, converged = newton_many(*args)
        converged[1] = False
        return X, iters, converged

    monkeypatch.setattr(sim_batch, "_newton_many", drop_row_1)
    got = solve_dc_many(rows, source_values={"vvip": 0.6})
    want = solve_dc(circuits[0], tech, deltas=deltas_list[1],
                    source_values={"vvip": 0.6})
    assert np.array_equal(got[1].x, want.x)
    assert got[1].iterations == want.iterations
