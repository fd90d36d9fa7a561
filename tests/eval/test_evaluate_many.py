"""`PlacementEvaluator.evaluate_many` / `cost_many`: semantics + equivalence.

The batched entry point must be a drop-in for a sequential loop of
`evaluate` calls: same metrics (to solver tolerance), same cache
behavior, same `sim_count` = one per genuinely new placement, same
penalty handling when a placement fails to converge.
"""

import pytest

from repro.eval import FAILURE_PRIMARY, PlacementEvaluator
from repro.eval.suites import SUITES
from repro.layout import banded_placement
from repro.netlist import (
    comparator,
    current_mirror,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.sim.dc import ConvergenceError

BLOCKS = {
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota2s": two_stage_ota,
}
STYLES = ("sequential", "ysym", "common_centroid")


def batch_for(block):
    return [banded_placement(block, style) for style in STYLES]


class TestEquivalence:
    @pytest.mark.parametrize("kind", sorted(BLOCKS))
    def test_matches_sequential_evaluate(self, kind):
        block = BLOCKS[kind]()
        sequential = PlacementEvaluator(block)
        batched = PlacementEvaluator(block)
        placements = batch_for(block)
        want = [sequential.evaluate(p) for p in placements]
        got = batched.evaluate_many(placements)
        for w, g in zip(want, got):
            assert set(w.values) == set(g.values)
            for key, value in w.values.items():
                assert g.values[key] == pytest.approx(
                    value, rel=1e-8, abs=1e-12), (kind, key)

    def test_cost_many_matches_cost(self):
        block = current_mirror()
        evaluator = PlacementEvaluator(block)
        placements = batch_for(block)
        want = [PlacementEvaluator(block).cost(p) for p in placements]
        got = evaluator.cost_many(placements)
        assert got == pytest.approx(want, rel=1e-8)

    def test_single_item_batch_is_sequential_path(self):
        block = current_mirror()
        a = PlacementEvaluator(block)
        b = PlacementEvaluator(block)
        p = banded_placement(block, "ysym")
        assert a.evaluate_many([p])[0].values == b.evaluate(p).values


class TestCountingSemantics:
    def test_each_miss_counts_once(self):
        evaluator = PlacementEvaluator(current_mirror())
        evaluator.evaluate_many(batch_for(evaluator.block))
        assert evaluator.sim_count == 3
        assert evaluator.cache_hits == 0

    def test_duplicates_in_batch_hit_cache(self):
        evaluator = PlacementEvaluator(current_mirror())
        p = banded_placement(evaluator.block, "ysym")
        q = banded_placement(evaluator.block, "sequential")
        metrics = evaluator.evaluate_many([p, p.copy(), q, p.copy()])
        assert evaluator.sim_count == 2
        assert evaluator.cache_hits == 2
        assert metrics[0] is metrics[1] is metrics[3]

    def test_precached_placements_hit_cache(self):
        evaluator = PlacementEvaluator(current_mirror())
        placements = batch_for(evaluator.block)
        evaluator.evaluate(placements[0])
        evaluator.evaluate_many(placements)
        assert evaluator.sim_count == 3
        assert evaluator.cache_hits == 1

    def test_all_cached_batch_simulates_nothing(self):
        evaluator = PlacementEvaluator(current_mirror())
        placements = batch_for(evaluator.block)
        evaluator.evaluate_many(placements)
        count = evaluator.sim_count
        evaluator.evaluate_many([p.copy() for p in placements])
        assert evaluator.sim_count == count
        assert evaluator.cache_hits == 3

    def test_empty_batch(self):
        evaluator = PlacementEvaluator(current_mirror())
        assert evaluator.evaluate_many([]) == []
        assert evaluator.sim_count == 0


class TestFailureSemantics:
    def test_failing_batch_penalises_only_failures(self, monkeypatch):
        """A batch-level failure re-prices sequentially: exactly the
        placement whose simulation fails gets the penalty metrics."""
        block = current_mirror()
        evaluator = PlacementEvaluator(block)
        placements = batch_for(block)
        bad_signature = placements[1].signature()
        real_suite = SUITES["cm"]

        def flaky(bench, deltas, placement, warm):
            if placement.signature() == bad_signature:
                raise ConvergenceError("injected failure")
            return real_suite(bench, deltas, placement, warm)

        monkeypatch.setattr(evaluator, "_suite", flaky)
        monkeypatch.setitem(
            __import__("repro.eval.batch_suites", fromlist=["BATCH_SUITES"])
            .BATCH_SUITES, "cm",
            lambda *a, **k: (_ for _ in ()).throw(
                ConvergenceError("batch failure")),
        )
        metrics = evaluator.evaluate_many(placements)
        assert metrics[1].primary_value == FAILURE_PRIMARY
        assert metrics[0].primary_value < FAILURE_PRIMARY
        assert metrics[2].primary_value < FAILURE_PRIMARY
        assert evaluator.sim_failures == 1
        assert evaluator.sim_count == 3


class TestCacheEviction:
    def test_reinsert_does_not_evict_unrelated_entry(self):
        """Regression: re-storing an existing key must not pop the LRU tail."""
        evaluator = PlacementEvaluator(current_mirror(), cache_size=2)
        hot = banded_placement(evaluator.block, "sequential")
        cold = banded_placement(evaluator.block, "ysym")
        evaluator.evaluate(hot)
        metrics = evaluator.evaluate(cold)
        evaluator._store(cold.signature(), metrics)  # cache is full
        evaluator.evaluate(hot)
        assert evaluator.sim_count == 2  # hot was not evicted

    def test_batch_larger_than_cache_still_returns_all(self):
        evaluator = PlacementEvaluator(current_mirror(), cache_size=2)
        metrics = evaluator.evaluate_many(batch_for(evaluator.block))
        assert len(metrics) == 3
        assert all(m is not None for m in metrics)
        assert evaluator.sim_count == 3
