"""Bitwise: the per-block testbenches equal the annotated-circuit path.

An evaluator builds its block's testbenches once (``repro.eval.suites
.BENCHES``) and per placement rebinds only the variation deltas and, for
an AC bench, the parasitic capacitor values; DC benches carry no
parasitic capacitors at all.  The reference here is the path that
rebuilt everything per placement: ``annotate_parasitics``, a copied
bench circuit, a fresh ``compiled_system``, node capacitances summed
over the annotated circuit and the comparator's three solves run one
after another.  DC solutions, AC transfers and whole ``Metrics`` must
match it bit for bit on the five library blocks and the eleven corpus
decks, along random walks.
"""

import dataclasses

import numpy as np
import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.eval.suites import (
    AC_FREQS,
    BENCHES,
    COMP_CAP_NETS,
    COMP_STAGES,
    _clamps,
    _feedback,
    _node_capacitances,
    cm_metrics,
    comp_metrics,
    open_loop_metrics,
    open_loop_transfers,
    ota_metrics,
)
from repro.eval.warm import WarmStore, dc_features, seed_dc, store_dc
from repro.layout.generators import random_walk_placements
from repro.netlist.library import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.route.parasitics import annotate_parasitics
from repro.service.corpus import build_entry, list_corpus
from repro.sim import reset_solver_stats, solve_ac, solve_dc, solver_stats
from repro.sim.compiled import compiled_system
from repro.sim.dc import ConvergenceError

LIBRARY = (current_mirror, comparator, five_transistor_ota,
           folded_cascode_ota, two_stage_ota)
BLOCKS = {builder.__name__: builder for builder in LIBRARY}
BLOCKS.update({entry.name: (lambda entry=entry: build_entry(entry))
               for entry in list_corpus()})
N_PLACEMENTS = 6
COUNTERS = ("newton_iterations", "jacobian_factorizations",
            "warm_exact_hits", "warm_near_hits", "warm_misses")


def _counters():
    stats = solver_stats()
    return {name: getattr(stats, name) for name in COUNTERS}


def _walk(block):
    return random_walk_placements(block, N_PLACEMENTS, seed=4)


def _annotated_benches(block, placement, tech):
    """The annotated-circuit benches: ``(dc, ac)``, ``ac`` None unless
    the block is an OTA."""
    annotated = annotate_parasitics(block.circuit, placement, tech)
    if block.kind == "cm":
        return annotated, None
    if block.kind == "comp":
        return annotated.copy_with(extra=_clamps(block)), None
    closed = annotated.copy_with(replacements={"vvin": _feedback()})
    ac = annotated.copy_with(replacements={
        "vvip": dataclasses.replace(annotated.device("vvip"), ac=+0.5),
        "vvin": dataclasses.replace(annotated.device("vvin"), ac=-0.5),
    })
    return closed, ac


def _annotated_suite(block, placement, deltas, tech, warm):
    """One evaluation on the annotated-circuit path."""
    dc_bench, ac_bench = _annotated_benches(block, placement, tech)
    feats = dc_features(deltas)
    if block.kind == "cm":
        result, x0 = seed_dc(warm, "cm", feats)
        if result is None:
            result = solve_dc(dc_bench, tech, deltas=deltas,
                              x0=warm.get("cm") if x0 is None else x0)
            store_dc(warm, "cm", feats, result)
        warm["cm"] = result.x
        return cm_metrics(block, placement, tech, result)
    if block.kind == "comp":
        vcm = block.params["vcm"]
        system = compiled_system(dc_bench, tech, deltas)
        results = []
        for key, vdiff in COMP_STAGES:
            stage = f"comp/{key}"
            result, x0 = seed_dc(warm, stage, feats)
            if result is None:
                result = solve_dc(
                    dc_bench, tech, deltas=deltas,
                    x0=warm.get("comp") if x0 is None else x0,
                    source_values={"vvip": vcm + vdiff / 2,
                                   "vvin": vcm - vdiff / 2},
                    system=system)
                store_dc(warm, stage, feats, result)
            warm.setdefault("comp", result.x)
            if key == "balanced":
                warm["comp"] = result.x
            results.append(result)
        node_caps = _node_capacitances(dc_bench, COMP_CAP_NETS, tech)
        return comp_metrics(block, placement, tech, deltas, *results,
                            node_caps)
    op, x0 = seed_dc(warm, "ota", feats)
    if op is None:
        op = solve_dc(dc_bench, tech, deltas=deltas,
                      x0=warm.get("ota") if x0 is None else x0)
        store_dc(warm, "ota", feats, op)
    warm["ota"] = op.x
    system = compiled_system(ac_bench, tech, deltas)

    def solve(lo, hi):
        ac = solve_ac(ac_bench, tech, op.voltages, AC_FREQS[lo:hi],
                      deltas=deltas, system=system, nets=("outp",))
        return ac.transfer("outp")[None]

    open_loop = open_loop_metrics(open_loop_transfers(solve, warm)[0])
    return ota_metrics(block, placement, tech, op, open_loop)


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_dc_and_ac_benches_match_annotated_circuits(name):
    block = BLOCKS[name]()
    evaluator = PlacementEvaluator(block)
    tech = evaluator.tech
    bench = BENCHES[block.kind](block, tech)
    dc = bench.closed if block.kind == "ota" else bench.dc
    x0 = None
    for placement in _walk(block):
        deltas = evaluator.deltas_for(placement)
        dc_ref, ac_ref = _annotated_benches(block, placement, tech)
        want = solve_dc(dc_ref, tech, deltas=deltas, x0=x0)
        got = solve_dc(dc.circuit, tech, deltas=deltas, x0=x0,
                       system=dc.rebind(deltas))
        assert got.x.tobytes() == want.x.tobytes()
        assert got.iterations == want.iterations
        assert list(got.voltages) == list(want.voltages)
        assert list(got.branch_currents) == list(want.branch_currents)
        x0 = want.x
        if ac_ref is None:
            continue
        caps = list(bench.block_caps) + [
            device.value for device in ac_ref if device.name.startswith("cpar_")]
        got_ac = solve_ac(bench.ac.circuit, tech, want.voltages, AC_FREQS,
                          deltas=deltas, system=bench.ac.rebind(deltas, caps))
        want_ac = solve_ac(ac_ref, tech, want.voltages, AC_FREQS,
                           deltas=deltas)
        for net, response in want_ac.node_voltages.items():
            assert got_ac.transfer(net).tobytes() == response.tobytes()


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_evaluations_match_annotated_path(name):
    block = BLOCKS[name]()
    evaluator = PlacementEvaluator(block)
    warm = WarmStore()
    walk = _walk(block)
    # Revisit the walk after dropping the result cache: every stage is
    # then an exact op-cache hit.
    sequence = walk + walk[::2]
    for i, placement in enumerate(sequence):
        if i == len(walk):
            evaluator.clear_cache()
        deltas = evaluator.deltas_for(placement)
        reset_solver_stats()
        want = _annotated_suite(block, placement, deltas, evaluator.tech,
                                warm)
        want_counts = _counters()
        reset_solver_stats()
        got = evaluator.evaluate(placement)
        assert _counters() == want_counts
        assert got.kind == want.kind and got.primary == want.primary
        assert list(got.values) == list(want.values)
        for key, value in want.values.items():
            assert np.float64(got.values[key]).tobytes() == \
                np.float64(value).tobytes(), key


def _warm_state(warm):
    """Every stored operating point and warm vector, as bytes."""
    libraries = {
        stage: [(token, result.x.tobytes(), result.iterations)
                for token, result in library.entries.items()]
        for stage, library in warm._library.items()
    }
    vectors = {key: np.asarray(value).tobytes()
               for key, value in warm.items()}
    return libraries, vectors


def _reseed(warm, stage, token, how):
    """Leave ``stage``'s library holding only the ``token`` entry
    (``"near"``), that entry with a non-finite solution (``"broken"``),
    or nothing at all (``"cold"``)."""
    result = warm._library[stage].entries[token]
    del warm._library[stage]
    if how == "cold":
        return
    if how == "broken":
        result = dataclasses.replace(result, x=np.full_like(result.x, np.nan))
    warm.store(stage, np.frombuffer(token), result)


@pytest.mark.parametrize("stage", [key for key, __ in COMP_STAGES])
@pytest.mark.parametrize("how", ["exact", "cold", "broken"])
def test_comparator_op_cache_cases(stage, how):
    """The comparator's stage seeding, case by case: one stage an exact
    op-cache hit while the others stack, one stage with an empty library
    (the balanced solve then runs first, on its own), and one stage
    whose seed defeats every fallback (the evaluation fails, stores what
    the sequential solves stored before the failing one and counts the
    Newton iterations they counted: rows after the failing one add
    none).  Only the op-cache lookup counters differ there, by design:
    the evaluator looks every stage up before it solves, the sequential
    path stops at the failing stage."""
    block = comparator()
    evaluator = PlacementEvaluator(block)
    warm = WarmStore()
    a, b = random_walk_placements(block, 2, seed=9)
    deltas_a, deltas_b = evaluator.deltas_for(a), evaluator.deltas_for(b)
    for placement, deltas in ((a, deltas_a), (b, deltas_b)):
        _annotated_suite(block, placement, deltas, evaluator.tech, warm)
        evaluator.evaluate(placement)
    token_b = dc_features(deltas_b).tobytes()
    for store in (warm, evaluator._warm):
        for key, __ in COMP_STAGES:
            if how == "exact" and key == stage:
                continue
            _reseed(store, f"comp/{key}", token_b,
                    how if key == stage else "near")
    evaluator.clear_cache()
    reset_solver_stats()
    try:
        want = _annotated_suite(block, a, deltas_a, evaluator.tech, warm)
    except ConvergenceError:
        want = None
    want_counts = _counters()
    reset_solver_stats()
    got = evaluator.evaluate(a)
    assert _warm_state(evaluator._warm) == _warm_state(warm)
    got_counts = _counters()
    if want is None:
        assert how == "broken" and evaluator.sim_failures == 1
        lookups = ("warm_exact_hits", "warm_near_hits", "warm_misses")
        for name in COUNTERS:
            if name not in lookups:
                assert got_counts[name] == want_counts[name], name
        stages = [key for key, __ in COMP_STAGES]
        assert sum(got_counts[name] for name in lookups) == len(stages)
        assert sum(want_counts[name] for name in lookups) == \
            stages.index(stage) + 1
        return
    assert got_counts == want_counts
    assert got.values == want.values
