"""Tests for placement generators: legality, connectivity, symmetry."""

import pytest

from repro.layout import PlacementEnv, banded_placement, is_connected
from repro.netlist import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
)

ALL_BLOCKS = [current_mirror, comparator, folded_cascode_ota, five_transistor_ota]
ALL_STYLES = ["sequential", "ysym", "common_centroid"]


@pytest.mark.parametrize("builder", ALL_BLOCKS)
@pytest.mark.parametrize("style", ALL_STYLES)
class TestEveryBlockEveryStyle:
    def test_all_units_placed(self, builder, style):
        block = builder()
        placement = banded_placement(block, style)
        assert len(placement) == block.circuit.total_units()

    def test_every_group_connected(self, builder, style):
        block = builder()
        placement = banded_placement(block, style)
        for group in block.groups:
            cells = []
            for name in group.devices:
                device = block.circuit.device(name)
                cells.extend(
                    placement.cell_of((name, k)) for k in range(device.n_units)
                )
            assert is_connected(cells, adjacency=8), (group.name, style)

    def test_groups_connected_even_under_4adjacency(self, builder, style):
        block = builder()
        placement = banded_placement(block, style)
        for group in block.groups:
            cells = []
            for name in group.devices:
                device = block.circuit.device(name)
                cells.extend(
                    placement.cell_of((name, k)) for k in range(device.n_units)
                )
            assert is_connected(cells, adjacency=4), (group.name, style)


class TestStyleGeometry:
    def test_ysym_mirrors_pairs_about_axis(self):
        """In the Y-symmetric style every matched pair's centroids mirror
        about the placement's vertical centre axis."""
        block = five_transistor_ota()
        placement = banded_placement(block, "ysym")
        c0, __, c1, __ = placement.bounding_box()
        axis = (c0 + c1) / 2.0
        for pair in block.pairs:
            ax, ay = placement.device_centroid(pair.a)
            bx, by = placement.device_centroid(pair.b)
            assert ax - axis == pytest.approx(axis - bx, abs=1e-9), pair
            assert ay == pytest.approx(by, abs=1e-9), pair

    def test_common_centroid_coincident_pair_centroids(self):
        """Interdigitation makes matched-pair centroids coincide."""
        block = five_transistor_ota()
        placement = banded_placement(block, "common_centroid")
        for pair in block.pairs:
            ax, ay = placement.device_centroid(pair.a)
            bx, by = placement.device_centroid(pair.b)
            assert ax == pytest.approx(bx, abs=0.51), pair
            assert ay == pytest.approx(by, abs=0.51), pair

    def test_sequential_fills_rows_in_device_order(self):
        """Sequential style lays units device-after-device: within each
        band row, unit indices of a device increase left to right."""
        block = current_mirror()
        placement = banded_placement(block, "sequential")
        for device in block.circuit.placeable():
            cells = placement.device_cells(device.name)
            ordered = sorted(cells, key=lambda cr: (cr[1], cr[0]))
            assert cells == ordered, device.name

    def test_gap_rows_separate_bands(self):
        """With the default 1-row gap, no two groups touch vertically."""
        block = current_mirror()
        placement = banded_placement(block, "sequential", gap_rows=1)
        group_of = {}
        for group in block.groups:
            for name in group.devices:
                group_of[name] = group.name
        for unit in placement.units:
            c, r = placement.cell_of(unit)
            below = placement.unit_at((c, r + 1))
            if below is not None:
                assert group_of[below[0]] == group_of[unit[0]]

    def test_gap_rows_zero_packs_compactly(self):
        block = current_mirror()
        packed = banded_placement(block, "sequential", gap_rows=0)
        gapped = banded_placement(block, "sequential", gap_rows=1)
        assert packed.area_cells() < gapped.area_cells()

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="gap_rows"):
            banded_placement(current_mirror(), "sequential", gap_rows=-1)

    def test_styles_differ(self):
        block = current_mirror()
        sigs = {banded_placement(block, s).signature() for s in ALL_STYLES}
        assert len(sigs) == 3

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="style"):
            banded_placement(current_mirror(), "spiral")

    def test_initial_placement_is_sequential(self):
        block = comparator()
        env = PlacementEnv(block, lambda placement: 0.0)
        assert (env.placement.signature()
                == banded_placement(block, "sequential").signature())

    def test_deterministic(self):
        block = folded_cascode_ota()
        a = banded_placement(block, "common_centroid")
        b = banded_placement(block, "common_centroid")
        assert a.signature() == b.signature()


class TestCanvasTooSmall:
    def test_rejects_insufficient_rows(self):
        import dataclasses
        block = five_transistor_ota()
        # 10 units on a 10x1 canvas: bands need 3 rows minimum.
        squeezed = dataclasses.replace(block, canvas=(10, 1))
        with pytest.raises(ValueError, match="rows"):
            banded_placement(squeezed, "sequential")
