"""Tests for dummy-device insertion."""

import pytest

from repro.layout import CanvasSpec, Placement, banded_placement, unit_context
from repro.layout.dummies import (
    DUMMY_DEVICE,
    active_units,
    dummy_area_overhead,
    is_dummy,
    with_dummy_halo,
)
from repro.netlist import current_mirror
from repro.tech import generic_tech_40

TECH = generic_tech_40()


@pytest.fixture
def row():
    p = Placement(CanvasSpec(7, 5))
    for k in range(3):
        p.place(("m", k), (k + 2, 2))
    return p


class TestHalo:
    def test_halo_surrounds_row(self, row):
        haloed = with_dummy_halo(row)
        # 3 active cells in a row: halo = 3 above + 3 below + 2 left/right
        # columns x 3 rows minus the corners already counted... simply:
        # bounding box grows to 5x3 = 15 cells, 3 active -> 12 dummies.
        assert len(haloed) - len(active_units(haloed)) == 12
        assert len(active_units(haloed)) == 3

    def test_original_untouched(self, row):
        with_dummy_halo(row)
        assert len(row) == 3

    def test_every_active_side_covered(self, row):
        haloed = with_dummy_halo(row)
        for unit in active_units(haloed):
            ctx = unit_context(haloed, unit, TECH)
            assert ctx.run_left >= 1
            assert ctx.run_right >= 1

    def test_halo_clipped_at_canvas_edge(self):
        p = Placement(CanvasSpec(3, 3))
        p.place(("m", 0), (0, 0))
        haloed = with_dummy_halo(p)
        # Corner cell: only 3 in-bounds neighbours.
        assert len(haloed) - len(active_units(haloed)) == 3

    def test_double_halo_rejected(self, row):
        haloed = with_dummy_halo(row)
        with pytest.raises(ValueError, match="already contains"):
            with_dummy_halo(haloed)

    def test_four_adjacency_halo_smaller(self, row):
        eight = with_dummy_halo(row, adjacency=8)
        four = with_dummy_halo(row, adjacency=4)
        assert len(four) < len(eight)  # same active units in both

    def test_deterministic(self, row):
        a = with_dummy_halo(row)
        b = with_dummy_halo(row)
        assert a.signature() == b.signature()


class TestAccounting:
    def test_is_dummy(self):
        assert is_dummy((DUMMY_DEVICE, 0))
        assert not is_dummy(("m1", 0))

    def test_area_overhead_positive(self, row):
        haloed = with_dummy_halo(row)
        assert dummy_area_overhead(haloed) > 0

    def test_area_overhead_zero_without_dummies(self, row):
        assert dummy_area_overhead(row) == pytest.approx(0.0)

    def test_overhead_requires_active_units(self):
        p = Placement(CanvasSpec(2, 2))
        p.place((DUMMY_DEVICE, 0), (0, 0))
        with pytest.raises(ValueError, match="active"):
            dummy_area_overhead(p)


class TestEvaluatorTransparency:
    def test_evaluator_accepts_dummied_placement(self):
        from repro.eval import PlacementEvaluator
        block = current_mirror()
        evaluator = PlacementEvaluator(block)
        bare = banded_placement(block, "ysym")
        haloed = with_dummy_halo(bare)
        bare_m = evaluator.evaluate(bare)
        halo_m = evaluator.evaluate(haloed)
        # Dummies change area and (through LOD runs) mismatch...
        assert halo_m["area_um2"] > bare_m["area_um2"]
        assert halo_m["mismatch_pct"] != pytest.approx(bare_m["mismatch_pct"])
        # ...but never the electrical netlist size.
        assert halo_m["wirelength_um"] == pytest.approx(bare_m["wirelength_um"])
