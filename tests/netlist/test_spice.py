"""Tests for SPICE export/import, including full round trips."""

import pytest

from repro.netlist import (
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
)
from repro.netlist.spice import SpiceFormatError, from_spice, to_spice
from repro.sim import solve_dc
from repro.tech import generic_tech_40

TECH = generic_tech_40()
ALL_BLOCKS = [current_mirror, comparator, folded_cascode_ota, five_transistor_ota]


@pytest.mark.parametrize("builder", ALL_BLOCKS)
class TestRoundTrip:
    def test_device_set_preserved(self, builder):
        original = builder().circuit
        restored = from_spice(to_spice(original, TECH))
        assert {d.name for d in original} == {d.name for d in restored}

    def test_connectivity_preserved(self, builder):
        original = builder().circuit
        restored = from_spice(to_spice(original, TECH))
        for device in original:
            twin = restored.device(device.name)
            assert device.conns == twin.conns, device.name

    def test_mosfet_parameters_preserved(self, builder):
        original = builder().circuit
        restored = from_spice(to_spice(original, TECH))
        for mosfet in original.mosfets():
            twin = restored.device(mosfet.name)
            assert twin.polarity == mosfet.polarity
            assert twin.n_units == mosfet.n_units
            assert twin.width == pytest.approx(mosfet.width, rel=1e-5)
            assert twin.length == pytest.approx(mosfet.length, rel=1e-5)

    def test_restored_circuit_simulates_identically(self, builder):
        original = builder().circuit
        restored = from_spice(to_spice(original, TECH))
        a = solve_dc(original, TECH)
        b = solve_dc(restored, TECH)
        for net in original.nets():
            assert b.voltage(net) == pytest.approx(a.voltage(net), abs=2e-5), net


class TestDeckFormat:
    def test_model_cards_emitted_with_tech(self):
        deck = to_spice(current_mirror().circuit, TECH)
        assert ".model nmos40 nmos" in deck
        assert ".model pmos40 pmos" in deck
        assert "level=1" in deck

    def test_no_models_without_tech(self):
        deck = to_spice(current_mirror().circuit)
        assert ".model" not in deck

    def test_ends_with_end_card(self):
        assert to_spice(current_mirror().circuit).rstrip().endswith(".end")

    def test_finger_notation(self):
        deck = to_spice(current_mirror().circuit, TECH)
        assert "m=4" in deck  # 4-unit devices exported as multiplier


class TestParser:
    def test_parse_hand_written_deck(self):
        deck = """
        * a divider with a switch
        .model nmos40 nmos (level=1 vto=0.45 kp=4e-4)
        vsup in 0 dc 1.1 ac 1
        r1 in mid 1k_is_not_supported_so_plain
        """
        # plain numbers only — rewrite the resistor line properly:
        deck = deck.replace("1k_is_not_supported_so_plain", "1000")
        deck += "mswitch mid gate 0 0 nmos40 w=1e-6 l=1.5e-7 m=2\n"
        deck += "vg gate 0 0.6\n.end\n"
        ckt = from_spice(deck)
        assert len(ckt) == 4
        m = ckt.device("switch")
        assert m.is_nmos
        assert m.n_units == 2
        assert ckt.device("sup").ac == 1.0
        assert ckt.device("g").dc == pytest.approx(0.6)

    def test_continuation_lines(self):
        deck = ("vs a 0 dc 1\n"
                "rload a\n"
                "+ 0 500\n"
                ".end\n")
        ckt = from_spice(deck)
        assert ckt.device("load").value == pytest.approx(500)

    def test_comments_ignored(self):
        deck = "* top\nvs a 0 1 ; trailing comment\nr1 a 0 100\n.end\n"
        ckt = from_spice(deck)
        assert len(ckt) == 2

    def test_pmos_model_suffix_fallback(self):
        deck = "mx d g s b my_pmos_model w=1e-6 l=1e-7\nvd d 0 1\nvg g 0 0\nvs s 0 1\nvb b 0 1\n"
        ckt = from_spice(deck)
        assert ckt.device("x").polarity < 0

    def test_orphan_continuation_rejected(self):
        with pytest.raises(SpiceFormatError, match="continuation"):
            from_spice("+ r1 a b 100\n")

    def test_unsupported_element_rejected(self):
        with pytest.raises(SpiceFormatError, match="unsupported"):
            from_spice("lchoke a b 1e-9\n")

    def test_bad_mosfet_card_rejected(self):
        with pytest.raises(SpiceFormatError, match="mosfet"):
            from_spice("m1 d g s\n")

    def test_bad_source_spec_rejected(self):
        with pytest.raises(SpiceFormatError, match="source"):
            from_spice("v1 a 0 dc\n")

    def test_bad_kv_rejected(self):
        with pytest.raises(SpiceFormatError, match="key=value"):
            from_spice("m1 d g s b nmos40 w 1e-6\n")
