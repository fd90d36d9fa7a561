"""Integration tests for the PlacementEvaluator on all three circuits."""

import pytest

from repro.eval import PlacementEvaluator
from repro.eval.objective import ObjectiveWeights
from repro.layout import banded_placement
from repro.netlist import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
)
from repro.variation import default_variation_model


@pytest.fixture(scope="module")
def cm_eval():
    return PlacementEvaluator(current_mirror())


class TestPipeline:
    def test_cm_metrics_complete(self, cm_eval):
        p = banded_placement(cm_eval.block, "sequential")
        m = cm_eval.evaluate(p)
        for key in ("mismatch_pct", "area_um2", "power_w", "wirelength_um"):
            assert key in m

    def test_mismatch_nonnegative(self, cm_eval):
        p = banded_placement(cm_eval.block, "ysym")
        assert cm_eval.evaluate(p).primary_value >= 0

    def test_comp_metrics_complete(self):
        ev = PlacementEvaluator(comparator())
        m = ev.evaluate(banded_placement(ev.block, "sequential"))
        for key in ("offset_mv", "delay_s", "power_w", "area_um2"):
            assert key in m
        assert m["delay_s"] > 0
        assert m["power_w"] > 0

    def test_ota_metrics_complete(self):
        ev = PlacementEvaluator(folded_cascode_ota())
        m = ev.evaluate(banded_placement(ev.block, "sequential"))
        assert m["gain_db"] > 60      # healthy folded cascode
        assert m["gbw_hz"] > 1e6
        assert 45 < m["pm_deg"] < 120
        assert m["offset_mv"] < 50

    def test_deltas_for_covers_all_mosfets(self, cm_eval):
        p = banded_placement(cm_eval.block, "sequential")
        deltas = cm_eval.deltas_for(p)
        assert set(deltas) == {m.name for m in cm_eval.block.circuit.mosfets()}


class TestDeterminismAndCache:
    def test_deterministic(self):
        ev1 = PlacementEvaluator(current_mirror())
        ev2 = PlacementEvaluator(current_mirror())
        p = banded_placement(ev1.block, "common_centroid")
        assert (ev1.evaluate(p).primary_value
                == pytest.approx(ev2.evaluate(p).primary_value, rel=1e-12))

    def test_cache_prevents_recount(self):
        ev = PlacementEvaluator(current_mirror())
        p = banded_placement(ev.block, "sequential")
        ev.evaluate(p)
        assert ev.sim_count == 1
        ev.evaluate(p.copy())
        assert ev.sim_count == 1
        assert ev.cache_hits == 1

    def test_distinct_placements_count(self):
        ev = PlacementEvaluator(current_mirror())
        ev.evaluate(banded_placement(ev.block, "sequential"))
        ev.evaluate(banded_placement(ev.block, "ysym"))
        assert ev.sim_count == 2

    def test_lru_eviction_keeps_hot_entries(self):
        ev = PlacementEvaluator(current_mirror(), cache_size=2)
        hot = banded_placement(ev.block, "sequential")
        cold = banded_placement(ev.block, "ysym")
        ev.evaluate(hot)
        ev.evaluate(cold)
        ev.evaluate(hot)  # hit: must refresh recency, not leave FIFO order
        assert ev.sim_count == 2
        ev.evaluate(banded_placement(ev.block, "common_centroid"))  # evicts
        ev.evaluate(hot)
        assert ev.sim_count == 3  # hot survived; only `cold` was evicted
        ev.evaluate(cold)
        assert ev.sim_count == 4

    def test_clear_cache_forces_resim(self):
        ev = PlacementEvaluator(current_mirror())
        p = banded_placement(ev.block, "sequential")
        ev.evaluate(p)
        ev.clear_cache()
        ev.evaluate(p)
        assert ev.sim_count == 2


class TestCost:
    def test_cost_tracks_primary(self):
        ev = PlacementEvaluator(current_mirror(),
                                objective=ObjectiveWeights(area=0.0))
        p = banded_placement(ev.block, "sequential")
        assert ev.cost(p) == pytest.approx(ev.evaluate(p).primary_value)

    def test_area_term_penalises_sprawl(self):
        # 10 x AREA_WEIGHT (0.05) = 0.5.
        ev = PlacementEvaluator(current_mirror(),
                                objective=ObjectiveWeights(area=10.0))
        p = banded_placement(ev.block, "sequential")
        metrics = ev.evaluate(p)
        assert ev.cost(p) >= metrics.primary_value

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="'area'"):
            PlacementEvaluator(current_mirror(),
                               objective=ObjectiveWeights(area=-1.0))

    @pytest.mark.parametrize("size", [0, -1])
    def test_cache_size_below_one_rejected(self, size):
        # A zero-size LRU would have nothing to evict on its first store.
        with pytest.raises(ValueError, match="cache_size"):
            PlacementEvaluator(current_mirror(), cache_size=size)

    def test_cache_size_one_keeps_the_last_placement(self):
        ev = PlacementEvaluator(current_mirror(), cache_size=1)
        a = banded_placement(ev.block, "sequential")
        b = banded_placement(ev.block, "ysym")
        ev.evaluate(a)
        ev.evaluate(b)
        ev.evaluate(b)
        assert (ev.sim_count, ev.cache_hits) == (2, 1)


class TestVariationCoupling:
    def test_zero_variation_zero_mismatch(self):
        """With the variation model off, every placement matches perfectly
        — placement only matters because of LDEs."""
        block = current_mirror()
        novar = default_variation_model(
            canvas_extent=1e-4, kind="none", with_lde=False
        )
        ev = PlacementEvaluator(block, variation=novar)
        for style in ("sequential", "ysym", "common_centroid"):
            m = ev.evaluate(banded_placement(block, style))
            assert m.primary_value < 0.02, style  # residual: probe vds difference

    def test_placement_changes_mismatch_under_variation(self):
        ev = PlacementEvaluator(current_mirror())
        a = ev.evaluate(banded_placement(ev.block, "sequential"))
        b = ev.evaluate(banded_placement(ev.block, "common_centroid"))
        assert a.primary_value != pytest.approx(b.primary_value, rel=1e-6)

    def test_systematic_spread_diagnostic(self):
        ev = PlacementEvaluator(current_mirror())
        p = banded_placement(ev.block, "sequential")
        spread = ev.systematic_spread(p)
        assert len(spread) == len(ev.block.pairs)
        assert all(v >= 0 for v in spread.values())

    def test_5t_ota_also_evaluates(self):
        ev = PlacementEvaluator(five_transistor_ota())
        m = ev.evaluate(banded_placement(ev.block, "sequential"))
        assert m["gain_db"] > 20
