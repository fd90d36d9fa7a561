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
"""

import os
import time

import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.layout.generators import banded_placement
from repro.netlist.library import comparator, current_mirror, folded_cascode_ota

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
