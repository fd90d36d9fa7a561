"""BENCH / eval — batched candidate evaluation throughput.

Records evals/sec of ``PlacementEvaluator.evaluate_many`` on the
two-stage OTA at batch sizes {1, 4, 8, 16}: a fixed set of 16 distinct
candidate placements is priced in chunks of each batch size, every
candidate a cache miss (the memoisation cache is cleared between
passes), so the numbers measure the full per-candidate pipeline —
contexts → variation deltas → parasitics → placement-batched compiled
DC/AC solves → metrics.

Batch size 1 is the sequential baseline (``evaluate_many`` routes
single-candidate chunks through the classic scalar path); the
acceptance target of the batched-evaluation work is **batch-8 ≥ 2×
batch-1** on the compiled engine.  Rounds of all batch sizes are
interleaved and best-of timed so machine noise hits every size equally.

Set ``EVAL_THROUGHPUT_SMOKE=1`` (the CI benchmark-smoke job does) to run
in shape-only mode: fewer rounds, and only agreement between batched and
sequential metrics is asserted — wall-clock multipliers are meaningless
on noisy shared runners.

Every pass starts from an empty operating-point library
(``clear_op_cache``), so no candidate's DC solve is skipped by an exact
op-cache hit from an earlier pass; the batched Newton's Jacobian reuse
is always on.  The op cache itself is measured separately by
``benchmarks/test_solver_speed.py``.
"""

import os
import time

import pytest

from repro.eval.evaluator import PlacementEvaluator
from repro.layout.generators import random_walk_placements
from repro.netlist.library import two_stage_ota

SMOKE = os.environ.get("EVAL_THROUGHPUT_SMOKE", "") not in ("", "0")
ROUNDS = 2 if SMOKE else 8
N_CANDIDATES = 16
BATCH_SIZES = (1, 4, 8, 16)


@pytest.mark.benchmark(group="eval")
def test_batched_eval_throughput(benchmark):
    block = two_stage_ota()
    placements = random_walk_placements(block, N_CANDIDATES)

    evaluators = {
        size: PlacementEvaluator(block)
        for size in BATCH_SIZES
    }

    def run_pass(size):
        evaluator = evaluators[size]
        evaluator.clear_cache()
        evaluator.clear_op_cache()
        for i in range(0, N_CANDIDATES, size):
            evaluator.evaluate_many(placements[i:i + size])

    for size in BATCH_SIZES:  # warm: topology compile, warm-start vectors
        run_pass(size)

    times = {size: [] for size in BATCH_SIZES}

    def interleaved_rounds():
        for __ in range(ROUNDS):
            for size in BATCH_SIZES:
                start = time.perf_counter()
                run_pass(size)
                times[size].append(time.perf_counter() - start)

    benchmark.pedantic(interleaved_rounds, rounds=1, iterations=1)

    evals_per_s = {
        size: N_CANDIDATES / min(times[size]) for size in BATCH_SIZES
    }
    speedup_8 = evals_per_s[8] / evals_per_s[1]
    benchmark.extra_info.update({
        "block": "ota2s",
        "candidates": N_CANDIDATES,
        "rounds": ROUNDS,
        "smoke": SMOKE,
        **{f"batch{size}_evals_per_s": round(evals_per_s[size], 1)
           for size in BATCH_SIZES},
        "batch8_vs_batch1": round(speedup_8, 2),
        "batch16_vs_batch1": round(evals_per_s[16] / evals_per_s[1], 2),
    })

    # Shape: batched and sequential pricing agree per placement.
    sequential = PlacementEvaluator(block)
    want = [sequential.evaluate(p) for p in placements[:4]]
    got = PlacementEvaluator(block).evaluate_many(
        placements[:4])
    for w, g in zip(want, got):
        for key, value in w.values.items():
            assert g.values[key] == pytest.approx(value, rel=1e-8, abs=1e-12)

    if not SMOKE:
        # The acceptance target: batch-8 at least 2x sequential.
        assert speedup_8 >= 2.0, (
            f"batch-8 evaluate_many only {speedup_8:.2f}x sequential "
            f"({evals_per_s[8]:.0f} vs {evals_per_s[1]:.0f} evals/s)"
        )


@pytest.mark.benchmark(group="eval")
def test_batched_eval_monotone_counts(benchmark):
    """Counting semantics hold at every batch size (cheap, always on)."""
    block = two_stage_ota()
    placements = random_walk_placements(block, 8)

    def counts():
        out = {}
        for size in (1, 4, 8):
            evaluator = PlacementEvaluator(block)
            for i in range(0, 8, size):
                evaluator.evaluate_many(placements[i:i + size])
            out[size] = (evaluator.sim_count, evaluator.cache_hits)
        return out

    result = benchmark.pedantic(counts, rounds=1, iterations=1)
    assert result == {1: (8, 0), 4: (8, 0), 8: (8, 0)}
