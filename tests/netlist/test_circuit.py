"""Unit tests for the Circuit container."""

import pytest

from repro.netlist import Circuit, Mosfet, Resistor, VoltageSource


def simple_circuit():
    """A resistor-loaded NMOS common-source stage."""
    ckt = Circuit("cs_stage")
    ckt.add(VoltageSource("vvdd", {"p": "vdd", "n": "gnd"}, dc=1.1))
    ckt.add(VoltageSource("vin", {"p": "in", "n": "gnd"}, dc=0.6))
    ckt.add(Resistor("rload", {"a": "vdd", "b": "out"}, value=10e3))
    ckt.add(Mosfet("m1", {"d": "out", "g": "in", "s": "gnd", "b": "gnd"},
                   polarity=+1, width=2e-6, length=0.2e-6, n_units=2))
    return ckt


class TestBuild:
    def test_add_and_lookup(self):
        ckt = simple_circuit()
        assert len(ckt) == 4
        assert ckt.device("m1").name == "m1"
        assert "m1" in ckt
        assert "mx" not in ckt

    def test_duplicate_name_rejected(self):
        ckt = simple_circuit()
        with pytest.raises(ValueError, match="duplicate"):
            ckt.add(Resistor("rload", {"a": "vdd", "b": "out"}))

    def test_unknown_lookup(self):
        with pytest.raises(KeyError, match="no device"):
            simple_circuit().device("zz")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            Circuit("")

    def test_insertion_order_preserved(self):
        names = [d.name for d in simple_circuit()]
        assert names == ["vvdd", "vin", "rload", "m1"]


class TestQueries:
    def test_nets_first_touch_order(self):
        ckt = simple_circuit()
        assert ckt.nets() == ("vdd", "gnd", "in", "out")

    def test_net_devices(self):
        ckt = simple_circuit()
        attached = ckt.net_devices("out")
        assert {(d.name, p) for d, p in attached} == {("rload", "b"), ("m1", "d")}

    def test_mosfets(self):
        assert [m.name for m in simple_circuit().mosfets()] == ["m1"]

    def test_placeable(self):
        assert [d.name for d in simple_circuit().placeable()] == ["m1"]

    def test_total_units(self):
        assert simple_circuit().total_units() == 2


class TestCopyWith:
    def test_replace_device(self):
        ckt = simple_circuit()
        bigger = Mosfet("m1", {"d": "out", "g": "in", "s": "gnd", "b": "gnd"},
                        polarity=+1, width=8e-6, length=0.2e-6, n_units=8)
        new = ckt.copy_with(replacements={"m1": bigger})
        assert new.device("m1").n_units == 8
        assert ckt.device("m1").n_units == 2  # original untouched

    def test_append_extra(self):
        ckt = simple_circuit()
        new = ckt.copy_with(extra=[Resistor("r2", {"a": "out", "b": "gnd"})])
        assert len(new) == len(ckt) + 1

    def test_replace_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown"):
            simple_circuit().copy_with(
                replacements={"zz": Resistor("zz", {"a": "a", "b": "gnd"})}
            )


class TestValidate:
    def test_valid_circuit_passes(self):
        simple_circuit().validate()

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError, match="no devices"):
            Circuit("empty").validate()

    def test_missing_ground_rejected(self):
        ckt = Circuit("no_gnd")
        ckt.add(Resistor("r1", {"a": "x", "b": "y"}))
        ckt.add(Resistor("r2", {"a": "y", "b": "x"}))
        with pytest.raises(ValueError, match="ground"):
            ckt.validate()

    def test_dangling_net_rejected(self):
        ckt = simple_circuit()
        bad = ckt.copy_with(extra=[Resistor("rdangle", {"a": "out", "b": "nowhere"})])
        with pytest.raises(ValueError, match="dangling"):
            bad.validate()
