"""Compiled-engine equivalence: every analysis matches the reference loop.

The compiled MNA engine (cached topology, vectorized stamping, batched AC
solves) must be *behaviour-preserving*: for every library block, under
nominal parameters, a slow-slow global corner and random per-device deltas,
DC and AC results must match the per-device reference
assembler (:class:`repro.sim.mna.MnaSystem`, swapped in by the
``mna_reference`` fixture) to tight tolerances, and reusing one cached
topology across many placements must never change metrics.
"""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.layout.generators import banded_placement
from repro.netlist.devices import VoltageSource
from repro.netlist.library import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.sim import (
    clear_topology_cache,
    compiled_system,
    solve_ac,
    solve_dc,
    structure_signature,
    topology_cache_info,
)
from repro.sim.mna import MnaSystem
from repro.tech import generic_tech_40
from repro.variation import DeviceDelta

TECH = generic_tech_40()

BUILDERS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota5t": five_transistor_ota,
    "ota2s": two_stage_ota,
}

# A handful of frequency points spanning the band is enough to exercise
# the batched assembly; the grid itself is identical for both assemblers.
FREQS = np.logspace(4, 9, 6)


def _dc_circuit(name, block):
    """The DC testbench: the raw block, clamped for the bistable latch."""
    if name == "comp":
        clamp_v = block.params["clamp_v"]
        return block.circuit.copy_with(extra=[
            VoltageSource("vclampp", {"p": "outp", "n": "gnd"}, dc=clamp_v),
            VoltageSource("vclampn", {"p": "outn", "n": "gnd"}, dc=clamp_v),
        ])
    return block.circuit


def _variants(name, circuit):
    """deltas for {nominal, corner, random} parameter variants."""
    # Seed from a stable digest: str hash() is salted per process, which
    # made the drawn deltas — and hence this suite's pass/fail — vary
    # from run to run.
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    random_deltas = {
        m.name: DeviceDelta(
            dvth=float(rng.uniform(-0.02, 0.02)),
            dbeta_rel=float(rng.uniform(-0.05, 0.05)),
        )
        for m in circuit.mosfets()
    }
    # Slow-slow: +30 mV of threshold and -8 % of beta, both polarities.
    slow = DeviceDelta(dvth=0.030, dbeta_rel=-0.08)
    return {
        "nominal": None,
        "corner": {m.name: slow for m in circuit.mosfets()},
        "random": random_deltas,
    }


def _ac_bench(name, circuit):
    """The block's circuit with a small-signal drive applied."""
    if name == "cm":
        probe = circuit.device("vprobeout")
        return circuit.copy_with(
            replacements={"vprobeout": dataclasses.replace(probe, ac=1.0)})
    vip = circuit.device("vvip")
    vin = circuit.device("vvin")
    return circuit.copy_with(replacements={
        "vvip": dataclasses.replace(vip, ac=+0.5),
        "vvin": dataclasses.replace(vin, ac=-0.5),
    })


def _params():
    return [
        pytest.param(name, BUILDERS[name](), variant, id=f"{name}-{variant}")
        for name in BUILDERS
        for variant in ("nominal", "corner", "random")
    ]


@pytest.mark.parametrize("name,block,variant", _params())
class TestAnalysisEquivalence:
    def test_dc_matches_legacy(self, name, block, variant, mna_reference):
        circuit = _dc_circuit(name, block)
        deltas = _variants(name, circuit)[variant]
        with mna_reference():
            legacy = solve_dc(circuit, TECH, deltas=deltas)
        compiled = solve_dc(circuit, TECH, deltas=deltas)
        for net, v in legacy.voltages.items():
            assert compiled.voltages[net] == pytest.approx(v, abs=1e-10)
        for src, i in legacy.branch_currents.items():
            assert compiled.branch_currents[src] == pytest.approx(i, abs=1e-10)

    def test_ac_matches_legacy(self, name, block, variant, mna_reference):
        circuit = _dc_circuit(name, block)
        deltas = _variants(name, circuit)[variant]
        bench = _ac_bench(name, block.circuit)

        def run():
            op = solve_dc(circuit, TECH, deltas=deltas)
            return solve_ac(bench, TECH, op.voltages, FREQS, deltas=deltas)

        with mna_reference():
            legacy = run()
        compiled = run()
        for net, h in legacy.node_voltages.items():
            assert np.allclose(
                compiled.node_voltages[net], h,
                rtol=1e-10, atol=1e-10,
            ), f"AC transfer mismatch on net {net!r}"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_reference_solve_ac_batch_contract(name):
    """``MnaSystem.solve_ac_batch`` keeps the compiled signature and
    ``(nfreq, size)`` return shape."""
    block = BUILDERS[name]()
    bench = _ac_bench(name, block.circuit)
    op = solve_dc(_dc_circuit(name, block), TECH).voltages
    compiled = compiled_system(bench, TECH)
    reference = MnaSystem(bench, TECH)
    omegas = 2.0 * np.pi * FREQS
    want = compiled.solve_ac_batch(op, omegas)
    got = reference.solve_ac_batch(op, omegas)
    assert got.shape == want.shape == (len(FREQS), compiled.size)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


class TestMetricsEquivalence:
    """PlacementEvaluator produces identical metrics on both assemblers."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_metrics_identical_across_engines(self, name, mna_reference):
        block = BUILDERS[name]()
        for style in ("sequential", "ysym"):
            placement = banded_placement(block, style)
            with mna_reference():
                legacy = PlacementEvaluator(block).evaluate(placement)
            compiled = PlacementEvaluator(block).evaluate(placement)
            assert set(legacy.values) == set(compiled.values)
            for key, value in legacy.values.items():
                assert compiled.values[key] == pytest.approx(
                    value, rel=1e-9, abs=1e-9
                ), f"metric {key!r} diverged on {name}/{style}"


def _distinct_placements(block, count=3):
    """Guaranteed-distinct placements: the banded seed plus single moves."""
    placements = [banded_placement(block, "sequential")]
    while len(placements) < count:
        mutated = placements[-1].copy()
        unit = mutated.units[0]
        cols, rows = mutated.canvas.cols, mutated.canvas.rows
        target = next(
            (c, r) for r in range(rows - 1, -1, -1)
            for c in range(cols - 1, -1, -1) if mutated.is_free((c, r))
        )
        mutated.move(unit, target)
        placements.append(mutated)
    return placements


class TestTopologyCache:
    def test_placements_share_one_topology(self):
        """Each testbench fetches its topology once per evaluator, on the
        first simulation; later placements only rebind the benches."""
        block = five_transistor_ota()
        clear_topology_cache()
        evaluator = PlacementEvaluator(block)
        first, *rest = _distinct_placements(block)
        evaluator.evaluate(first)
        # The OTA's two benches: closed-loop DC and open-loop AC.
        fetched = {"size": 2, "hits": 0, "misses": 2}
        assert topology_cache_info() == fetched
        for placement in rest:
            evaluator.evaluate(placement)
        assert topology_cache_info() == fetched
        # A second evaluator of the block fetches the cached topologies.
        PlacementEvaluator(block).evaluate(first)
        assert topology_cache_info() == {"size": 2, "hits": 2, "misses": 2}

    def test_rebound_benches_share_sources_and_drive(self):
        """Per-placement rebinds share the bench's source levels and AC
        drive: they are built once, on the bench binding."""
        block = five_transistor_ota()
        evaluator = PlacementEvaluator(block)
        a, b = _distinct_placements(block)[:2]
        evaluator.evaluate(a)
        bench = evaluator._benches()
        for system in (bench.closed, bench.ac):
            bound_a = system.rebind(evaluator.deltas_for(a))
            bound_b = system.rebind(evaluator.deltas_for(b))
            assert bound_a._source_levels() is system._src_base
            assert bound_b._source_levels() is system._src_base
            assert bound_a._ac_drive() is system._b_ac
            assert bound_b._ac_drive() is system._b_ac

    def test_cache_reuse_never_changes_metrics(self, mna_reference):
        block = five_transistor_ota()
        clear_topology_cache()
        shared = PlacementEvaluator(block)
        for placement in _distinct_placements(block):
            reused = shared.evaluate(placement)
            # A fresh evaluator on the reference assembler shares no
            # state at all.
            with mna_reference():
                fresh = PlacementEvaluator(block).evaluate(placement)
            for key, value in fresh.values.items():
                assert reused.values[key] == pytest.approx(
                    value, rel=1e-9, abs=1e-9)

    def test_signature_separates_structure_not_values(self):
        block = five_transistor_ota()
        a = banded_placement(block, "sequential")
        b = banded_placement(block, "ysym")
        from repro.route.parasitics import annotate_parasitics
        sig_a = structure_signature(annotate_parasitics(block.circuit, a, TECH))
        sig_b = structure_signature(annotate_parasitics(block.circuit, b, TECH))
        assert sig_a == sig_b  # values differ, structure does not
        other = current_mirror()
        assert structure_signature(other.circuit) != sig_a


def test_reference_fixture_swaps_the_assembler(mna_reference):
    """Inside ``mna_reference`` nothing compiles a topology: every solve of
    an evaluation (direct analyses included) runs on ``MnaSystem``."""
    block = five_transistor_ota()
    circuit = block.circuit
    clear_topology_cache()
    with mna_reference():
        PlacementEvaluator(block).evaluate(banded_placement(block, "ysym"))
        op = solve_dc(circuit, TECH)
        solve_ac(_ac_bench("ota5t", circuit), TECH, op.voltages, FREQS)
    assert topology_cache_info()["misses"] == 0
    solve_dc(circuit, TECH)
    assert topology_cache_info()["misses"] == 1
