"""Placement-batched solves vs the sequential compiled path.

For every library block we build K placement variants — different
parasitic annotations and different variation deltas, identical structure
— and check that the batched drivers (`solve_dc_many` / `solve_ac_many`)
agree with the scalar compiled path placement-for-placement to ≤ 1e-10.
This is the contract that lets the evaluator price candidate batches
without changing a single metric.
"""

import numpy as np
import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.layout.generators import banded_placement
from repro.netlist.library import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.route.parasitics import annotate_parasitics
from repro.sim import (
    batched_system,
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


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_dc_many_matches_sequential(batches, kind):
    circuits, deltas_list, tech = batches[kind]
    batch = solve_dc_many(circuits, tech, deltas_list)
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
    batch = solve_ac_many(circuits, tech, ops, FREQS, deltas_list)
    for circuit, op, deltas, got in zip(circuits, ops, deltas_list, batch):
        want = solve_ac(circuit, tech, op, FREQS, deltas=deltas)
        for net in circuit.nets():
            np.testing.assert_allclose(
                got.transfer(net), want.transfer(net), atol=TOL, rtol=TOL)


def test_single_circuit_batch_falls_back_scalar(batches):
    circuits, deltas_list, tech = batches["cm"]
    got = solve_dc_many(circuits[:1], tech, deltas_list[:1])[0]
    want = solve_dc(circuits[0], tech, deltas=deltas_list[0])
    assert got.voltages == want.voltages


def test_mixed_signatures_rejected(batches):
    cm_circuits, __, tech = batches["cm"]
    ota_circuits, __, __t = batches["ota5t"]
    with pytest.raises(ValueError, match="signature"):
        batched_system([cm_circuits[0], ota_circuits[0]], tech)


def test_warm_start_accepted_per_row_and_shared(batches):
    circuits, deltas_list, tech = batches["cm"]
    cold = solve_dc_many(circuits, tech, deltas_list)
    shared = solve_dc_many(circuits, tech, deltas_list, x0=cold[0].x)
    per_row = solve_dc_many(
        circuits, tech, deltas_list, x0=[r.x for r in cold])
    for a, b, c in zip(cold, shared, per_row):
        for net, v in a.voltages.items():
            assert b.voltages[net] == pytest.approx(v, abs=TOL, rel=TOL)
            assert c.voltages[net] == pytest.approx(v, abs=TOL, rel=TOL)
