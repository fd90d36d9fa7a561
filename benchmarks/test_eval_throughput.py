"""BENCH / sim — placement-evaluation throughput: compiled vs legacy MNA.

Records evaluations/second of ``PlacementEvaluator.evaluate`` per block
kind on the compiled engine and on the per-device reference assembler
(:class:`repro.sim.mna.MnaSystem`, swapped in by the ``mna_reference``
fixture — the "legacy" loop).  Every evaluation is a cache miss (the
memoisation cache and the operating-point cache are cleared between
calls), so the numbers measure the full pipeline the optimizers pay for: contexts → variation deltas →
parasitics → simulation suite.

The compiled engine must be **at least 3× faster on the OTA block**
(acceptance target of the compiled-engine work; AC-heavy suites gain the
most from batched frequency solves).  CM and COMP numbers are recorded in
``extra_info`` for trajectory tracking without a hard multiplier — their
suites are DC-dominated and much cheaper, so the engine matters less.

Set ``EVAL_THROUGHPUT_SMOKE=1`` (the CI benchmark-smoke job does) to run
in shape-only mode: fewer repetitions, and only the *shape* is asserted —
both assemblers work and agree — without wall-clock multipliers, which
are meaningless on noisy shared runners.

``test_front_end_vs_frozen_path`` times the front end a placement pays
before it simulates — ``deltas_for`` plus ``parasitic_caps``, the calls
an evaluation makes — on fresh random-walk placements of cm, comp and
ota2s, each path with a fresh evaluator, against the frozen
raster-and-recompute copy in the root ``conftest.py``.  Both must agree
bit for bit; outside smoke mode the live path must be at least 2×
faster.
"""

import os
import struct
import time

import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.layout.generators import banded_placement, random_walk_placements
from repro.layout.placement import Placement
from repro.netlist.library import (
    comparator,
    current_mirror,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.route.parasitics import parasitic_caps

SMOKE = os.environ.get("EVAL_THROUGHPUT_SMOKE", "") not in ("", "0")
EVALS = 3 if SMOKE else 10

BLOCKS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
}


def _time_evaluations(evaluator, placement, n) -> float:
    """Seconds per cache-miss evaluation (best single pass of ``n``).

    Both caches are cleared before every repeat, so each one simulates:
    an op-cache exact hit would skip the DC solves being compared.
    """
    evaluator.evaluate(placement)  # warm: topology compile, warm-start vec
    start = time.perf_counter()
    for __ in range(n):
        evaluator.clear_cache()
        evaluator.clear_op_cache()
        evaluator.evaluate(placement)
    return (time.perf_counter() - start) / n


@pytest.mark.benchmark(group="sim")
@pytest.mark.parametrize("kind", sorted(BLOCKS))
def test_eval_throughput_compiled_vs_legacy(benchmark, kind, mna_reference):
    block = BLOCKS[kind]()
    placement = banded_placement(block, "ysym")

    legacy_eval = PlacementEvaluator(block)
    with mna_reference():
        legacy_s = _time_evaluations(legacy_eval, placement, EVALS)
        legacy_metrics = legacy_eval.evaluate(placement)

    compiled_eval = PlacementEvaluator(block)
    compiled_s = benchmark.pedantic(
        lambda: _time_evaluations(compiled_eval, placement, EVALS),
        rounds=1, iterations=1,
    )

    speedup = legacy_s / compiled_s
    benchmark.extra_info.update({
        "block": kind,
        "evals": EVALS,
        "legacy_evals_per_s": round(1.0 / legacy_s, 1),
        "compiled_evals_per_s": round(1.0 / compiled_s, 1),
        "speedup": round(speedup, 2),
        "smoke": SMOKE,
    })

    # Shape: both assemblers produced identical metrics for the placement.
    compiled_metrics = compiled_eval.evaluate(placement)
    for key, value in legacy_metrics.values.items():
        assert compiled_metrics.values[key] == pytest.approx(
            value, rel=1e-9, abs=1e-9)
    assert legacy_s > 0 and compiled_s > 0

    if kind == "ota" and not SMOKE:
        # The acceptance target: >= 3x on the AC-heavy OTA suite.
        assert speedup >= 3.0, (
            f"compiled engine only {speedup:.2f}x faster on OTA "
            f"(legacy {legacy_s * 1e3:.2f} ms, compiled {compiled_s * 1e3:.2f} ms)"
        )


FRONT_END_BLOCKS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota2s": two_stage_ota,
}
FRONT_END_PLACEMENTS = 24 if SMOKE else 200
# Interleaved passes per path; the gate compares the fastest of each.
FRONT_END_ROUNDS = 5


def _unmemoised(placement):
    """A copy of ``placement`` that shares no memoised values with it."""
    out = Placement(placement.canvas)
    for unit, cell in placement.as_dict().items():
        out.place(unit, cell)
    return out


def _front_end_pass(block, walk, deltas, caps):
    """(µs per placement, outputs) of one pass with a fresh evaluator."""
    evaluator = PlacementEvaluator(block)
    placements = [_unmemoised(p) for p in walk]
    outputs = []
    start = time.perf_counter()
    for placement in placements:
        outputs.append((deltas(evaluator, placement),
                        caps(block.circuit, placement, evaluator.tech)))
    elapsed = time.perf_counter() - start
    return elapsed / len(placements) * 1e6, outputs


def _output_bits(deltas, caps):
    return (
        [(name, struct.pack("<dd", d.dvth, d.dbeta_rel))
         for name, d in deltas.items()],
        [(net, struct.pack("<d", cap)) for net, cap in caps.items()],
    )


@pytest.mark.benchmark(group="eval")
@pytest.mark.parametrize("kind", sorted(FRONT_END_BLOCKS))
def test_front_end_vs_frozen_path(benchmark, kind, frozen_front_end):
    frozen_deltas, frozen_caps = frozen_front_end
    block = FRONT_END_BLOCKS[kind]()
    walk = random_walk_placements(block, FRONT_END_PLACEMENTS, seed=17)

    def live_deltas(evaluator, placement):
        return evaluator.deltas_for(placement)

    live_us, frozen_us = [], []
    for __ in range(1 if SMOKE else FRONT_END_ROUNDS):
        us, frozen_out = _front_end_pass(
            block, walk, frozen_deltas, frozen_caps)
        frozen_us.append(us)
        us, live_out = _front_end_pass(
            block, walk, live_deltas, parasitic_caps)
        live_us.append(us)
    benchmark.pedantic(
        lambda: _front_end_pass(block, walk, live_deltas, parasitic_caps),
        rounds=1, iterations=1)

    for live, frozen in zip(live_out, frozen_out):
        assert _output_bits(*live) == _output_bits(*frozen)
    speedup = min(frozen_us) / min(live_us)
    benchmark.extra_info.update({
        "block": kind,
        "placements": len(walk),
        "frozen_us_per_placement": round(min(frozen_us), 1),
        "live_us_per_placement": round(min(live_us), 1),
        "speedup": round(speedup, 2),
        "smoke": SMOKE,
    })
    if not SMOKE:
        assert speedup >= 2.0, (
            f"front end only {speedup:.2f}x faster on {kind} "
            f"(frozen {min(frozen_us):.1f} us, live {min(live_us):.1f} us "
            f"per placement)")
