"""Solver fast-path equivalence, op-cache semantics and determinism.

The fast path (batched modified Newton with Jacobian reuse,
operating-point warm starts) must be a pure accelerator: the batched
driver has to land within 1e-10 of the scalar driver, which always runs
plain damped Newton, and running it must leave the scalar driver's
solution bit-identical — on every library block under nominal, corner
and random variation deltas — and results must stay bit-identical
across serial and process-pool execution.
"""

import numpy as np
import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.eval.warm import LIBRARY_SIZE, WarmStore, dc_features
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
    compiled_system,
    logspace_frequencies,
    reset_solver_stats,
    solve_ac,
    solve_dc,
    solve_dc_many,
    solver_stats,
)
from repro.tech import generic_tech_40
from repro.variation import DeviceDelta

BUILDERS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota5t": five_transistor_ota,
    "ota2s": two_stage_ota,
}
TOL = 1e-10
FREQS = logspace_frequencies(1e4, 1e9, points_per_decade=3)

#: Each entry runs one fast-path mechanism of the DC solvers on a
#: circuit and its deltas; the scalar DC driver must not depend on it.
MECHANISMS = {
    "jacobian_reuse": lambda annotated, tech, deltas: solve_dc_many(
        compiled_system(annotated, tech).rebind([deltas] * 2)),
}


def _delta_regimes(block):
    """Nominal, corner-shifted and randomly varied device deltas."""
    mosfets = list(block.circuit.mosfets())
    # Slow-slow: +30 mV of threshold and -8 % of beta, both polarities.
    ss = DeviceDelta(dvth=0.030, dbeta_rel=-0.08)
    rng = np.random.default_rng(7)
    return {
        "nominal": {},
        "corner": {m.name: ss for m in mosfets},
        "random": {
            m.name: DeviceDelta(
                dvth=float(rng.normal(0.0, 5e-3)),
                dbeta_rel=float(rng.normal(0.0, 0.02)),
            )
            for m in mosfets
        },
    }


@pytest.fixture(scope="module")
def cases():
    """kind → (annotated circuit, tech, regime → deltas, regime → x_ref)."""
    tech = generic_tech_40()
    out = {}
    for kind, builder in BUILDERS.items():
        block = builder()
        placement = banded_placement(block, "ysym")
        annotated = annotate_parasitics(block.circuit, placement, tech)
        regimes = _delta_regimes(block)
        refs = {regime: solve_dc(annotated, tech, deltas=deltas)
                for regime, deltas in regimes.items()}
        out[kind] = (annotated, tech, regimes, refs)
    return out


class TestKnobEquivalence:
    """The fast path against the scalar plain-Newton reference.

    (The solver's on/off knobs are gone; the class keeps its name so its
    test ids stay comparable across versions.)
    """

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    @pytest.mark.parametrize("regime", ("nominal", "corner", "random"))
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_dc_matches_reference(self, cases, kind, regime, mechanism):
        annotated, tech, regimes, refs = cases[kind]
        MECHANISMS[mechanism](annotated, tech, regimes[regime])
        got = solve_dc(annotated, tech, deltas=regimes[regime])
        assert np.array_equal(got.x, refs[regime].x)
        assert got.iterations == refs[regime].iterations

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_warm_start_matches_cold(self, cases, kind):
        annotated, tech, regimes, refs = cases[kind]
        ref = refs["random"]
        got = solve_dc(annotated, tech, deltas=regimes["random"], x0=ref.x)
        assert np.max(np.abs(got.x - ref.x)) < TOL
        assert got.iterations <= ref.iterations

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_batched_reuse_matches_scalar_reference(self, cases, kind):
        annotated, tech, regimes, refs = cases[kind]
        order = ("nominal", "corner", "random")
        batch = solve_dc_many(compiled_system(annotated, tech).rebind(
            [regimes[r] for r in order]))
        for regime, got in zip(order, batch):
            assert np.max(np.abs(got.x - refs[regime].x)) < TOL

    def test_only_batched_newton_reuses_jacobians(self, cases):
        annotated, tech, regimes, refs = cases["ota2s"]
        reset_solver_stats()
        scalar = solve_dc(annotated, tech, deltas=regimes["random"])
        stats = solver_stats()
        assert stats.jacobian_reuses == 0
        assert stats.jacobian_factorizations == scalar.iterations
        solve_dc_many(compiled_system(annotated, tech).rebind(
            [regimes["random"]] * 3))
        assert stats.jacobian_reuses > 0

    def test_ac_from_fast_op_matches_reference(self, cases):
        annotated, tech, regimes, refs = cases["ota2s"]
        deltas = regimes["random"]
        ref = refs["random"]
        want = solve_ac(annotated, tech, ref.voltages, FREQS, deltas=deltas)
        op = solve_dc(annotated, tech, deltas=deltas)
        got = solve_ac(annotated, tech, op.voltages, FREQS, deltas=deltas)
        for net, h in want.node_voltages.items():
            assert np.max(np.abs(got.node_voltages[net] - h)) < TOL * (
                1.0 + np.max(np.abs(h)))


class TestOpCache:
    def test_exact_hit_reuses_operating_point(self):
        block = five_transistor_ota()
        evaluator = PlacementEvaluator(block)
        placement = banded_placement(block, "ysym")
        first = evaluator.evaluate(placement)
        evaluator.clear_cache()
        reset_solver_stats()
        again = evaluator.evaluate(placement)
        assert solver_stats().warm_exact_hits >= 1
        # The reused operating point is the stored one, bit for bit.
        assert again.values == first.values

    def test_store_seed_roundtrip(self, cases):
        annotated, tech, regimes, refs = cases["cm"]
        store = WarmStore()
        feats = dc_features(regimes["random"])
        result = refs["random"]
        store.store("cm", feats, result)
        exact, x0 = store.seed("cm", feats)
        assert exact is result and x0 is None
        # A nearby query gets the stored solution as a Newton seed.
        near = feats + 1e-5
        exact, x0 = store.seed("cm", near)
        assert exact is None
        assert x0 is result.x
        # Bounded: the library evicts oldest entries beyond its size.
        for k in range(1, LIBRARY_SIZE + 1):
            store.store("cm", feats + k, result)
        entries = store._library["cm"].entries
        assert len(entries) == LIBRARY_SIZE
        assert feats.tobytes() not in entries
        assert (feats + 1).tobytes() in entries

    def test_evaluator_warm_is_store(self):
        block = current_mirror()
        evaluator = PlacementEvaluator(block)
        assert isinstance(evaluator._warm, WarmStore)
        # The legacy dict protocol still works on top.
        evaluator.evaluate(banded_placement(block, "ysym"))
        assert "cm" in evaluator._warm


class TestParallelDeterminism:
    def test_fig3_serial_pool_bit_identical(self):
        """Fast-path results do not depend on the execution backend."""
        from repro.experiments import ExperimentConfig, run_fig3
        from repro.runtime import ProcessPoolBackend, SerialBackend

        config = ExperimentConfig(
            name="CM", builder="cm", max_steps=15, seeds=(3,),
            ql_worse_tolerance=1.0,
        )
        serial = run_fig3(config, backend=SerialBackend())
        parallel = run_fig3(config, backend=ProcessPoolBackend(jobs=2))
        for a, b in zip(serial.rows, parallel.rows):
            assert a.primary == b.primary, a.algorithm
            assert a.fom == b.fom, a.algorithm
            assert a.placement.signature() == b.placement.signature()
