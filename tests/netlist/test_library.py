"""Tests for the circuit library blocks."""

import pytest

from repro.netlist import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
)

ALL_BLOCKS = [current_mirror, comparator, folded_cascode_ota, five_transistor_ota]


@pytest.mark.parametrize("builder", ALL_BLOCKS)
class TestEveryBlock:
    def test_netlist_validates(self, builder):
        builder().circuit.validate()

    def test_groups_partition_placeables(self, builder):
        block = builder()
        grouped = {name for g in block.groups for name in g.devices}
        placeable = {d.name for d in block.circuit.placeable()}
        assert grouped == placeable

    def test_canvas_holds_all_units_with_slack(self, builder):
        block = builder()
        cols, rows = block.canvas
        units = block.circuit.total_units()
        assert cols * rows >= units
        # Enough free cells to actually explore placements.
        assert cols * rows >= 1.2 * units

    def test_pairs_reference_real_devices(self, builder):
        block = builder()
        names = {d.name for d in block.circuit.placeable()}
        for pair in block.pairs:
            assert pair.a in names
            assert pair.b in names

    def test_paired_devices_have_identical_geometry(self, builder):
        block = builder()
        for pair in block.pairs:
            a = block.circuit.device(pair.a)
            b = block.circuit.device(pair.b)
            assert a.width == b.width, pair
            assert a.length == b.length, pair
            assert a.polarity == b.polarity, pair

    def test_input_nets_exist(self, builder):
        block = builder()
        nets = set(block.circuit.nets())
        for net in block.input_nets:
            assert net in nets


class TestCurrentMirror:
    def test_has_two_mirror_groups(self):
        block = current_mirror()
        kinds = [g.kind.value for g in block.groups]
        assert kinds == ["current_mirror", "current_mirror"]

    def test_probe_sources_exist(self):
        block = current_mirror()
        for src in block.params["probe_sources"]:
            assert src in block.circuit

    def test_unit_scaling(self):
        block = current_mirror(units_per_device=8)
        assert block.circuit.device("mref").n_units == 8


class TestComparator:
    def test_strongarm_device_count(self):
        assert len(comparator().circuit.mosfets()) == 11

    def test_input_pair_heaviest_weight(self):
        block = comparator()
        weights = {p.names(): p.weight for p in block.pairs}
        assert weights[("m1", "m2")] == max(weights.values())

    def test_cross_coupled_connectivity(self):
        ckt = comparator().circuit
        m3, m4 = ckt.device("m3"), ckt.device("m4")
        assert m3.net("g") == m4.net("d")
        assert m4.net("g") == m3.net("d")


class TestFoldedCascodeOta:
    def test_six_groups_match_fig1a(self):
        block = folded_cascode_ota()
        assert len(block.groups) == 6
        names = {g.name for g in block.groups}
        assert names == {"tail", "input_pair", "nsink", "ncascode", "pcascode", "pmirror"}

    def test_pmos_input_pair(self):
        ckt = folded_cascode_ota().circuit
        assert ckt.device("m1").polarity < 0
        assert ckt.device("m1").net("s") == ckt.device("m2").net("s")

    def test_folding_nodes_shared(self):
        ckt = folded_cascode_ota().circuit
        # Input drain and sink drain meet at the fold node.
        assert ckt.device("m1").net("d") == ckt.device("mn1").net("d")
        assert ckt.device("mc1").net("s") == ckt.device("m1").net("d")

    def test_bad_kind_rejected(self):
        import dataclasses
        block = folded_cascode_ota()
        with pytest.raises(ValueError, match="kind"):
            dataclasses.replace(block, kind="dac")

    def test_too_small_canvas_rejected(self):
        import dataclasses
        block = folded_cascode_ota()
        with pytest.raises(ValueError, match="cannot hold"):
            dataclasses.replace(block, canvas=(2, 2))
