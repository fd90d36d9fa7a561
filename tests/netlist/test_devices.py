"""Unit tests for device classes."""

import pytest

from repro.netlist import Capacitor, CurrentSource, Mosfet, Resistor, Vcvs, VoltageSource


def nmos(name="m1", **kw):
    conns = {"d": "out", "g": "in", "s": "gnd", "b": "gnd"}
    kwargs = dict(polarity=+1, width=2e-6, length=0.2e-6, n_units=2)
    kwargs.update(kw)
    return Mosfet(name, conns, **kwargs)


class TestMosfet:
    def test_ports(self):
        m = nmos()
        assert m.PORTS == ("d", "g", "s", "b")
        assert m.net("d") == "out"
        assert m.nets == ("out", "in", "gnd", "gnd")

    def test_placeable(self):
        assert nmos().is_placeable

    def test_unit_width(self):
        m = nmos(width=4e-6, n_units=4)
        assert m.unit_width == pytest.approx(1e-6)

    def test_polarity_predicates(self):
        assert nmos(polarity=+1).is_nmos
        assert not nmos(polarity=-1).is_nmos

    def test_missing_port_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            Mosfet("m1", {"d": "out", "g": "in", "s": "gnd"})

    def test_unknown_port_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Mosfet("m1", {"d": "a", "g": "b", "s": "c", "b": "d", "x": "e"})

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            nmos(polarity=3)

    def test_bad_units_rejected(self):
        with pytest.raises(ValueError, match="n_units"):
            nmos(n_units=0)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            nmos(width=-1e-6)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            nmos(name="")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            nmos(name="m 1")

    def test_unknown_port_lookup(self):
        with pytest.raises(KeyError):
            nmos().net("q")


class TestIdealElements:
    def test_resistor(self):
        r = Resistor("r1", {"a": "x", "b": "y"}, value=1e3)
        assert not r.is_placeable
        assert r.net("a") == "x"

    def test_resistor_value_positive(self):
        with pytest.raises(ValueError, match="resistance"):
            Resistor("r1", {"a": "x", "b": "y"}, value=0.0)

    def test_capacitor_value_positive(self):
        with pytest.raises(ValueError, match="capacitance"):
            Capacitor("c1", {"a": "x", "b": "y"}, value=-1e-15)

    def test_voltage_source(self):
        v = VoltageSource("v1", {"p": "vdd", "n": "gnd"}, dc=1.1, ac=1.0)
        assert v.dc == 1.1
        assert v.ac == 1.0

    def test_current_source(self):
        i = CurrentSource("i1", {"p": "vdd", "n": "bias"}, dc=20e-6)
        assert i.dc == pytest.approx(20e-6)

    def test_vcvs_ports(self):
        e = Vcvs("e1", {"p": "a", "n": "b", "cp": "c", "cn": "d"}, gain=2.0)
        assert e.PORTS == ("p", "n", "cp", "cn")
        assert e.gain == 2.0
