"""DC analysis tests against hand-calculable circuits, plus integration
tests that every library block's operating point converges and is sane."""

import math

import pytest

from repro.netlist import (
    Circuit,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
)
from repro.sim import solve_dc
from repro.sim.mosfet import terminal_currents
from repro.tech import generic_tech_40

TECH = generic_tech_40()


def divider():
    ckt = Circuit("divider")
    ckt.add(VoltageSource("v1", {"p": "in", "n": "gnd"}, dc=1.0))
    ckt.add(Resistor("r1", {"a": "in", "b": "mid"}, value=1e3))
    ckt.add(Resistor("r2", {"a": "mid", "b": "gnd"}, value=3e3))
    return ckt


class TestLinearCircuits:
    def test_resistor_divider(self):
        result = solve_dc(divider(), TECH)
        assert result.voltage("mid") == pytest.approx(0.75, rel=1e-6)

    def test_source_branch_current_sign(self):
        # 1 V across 4 kohm total: 0.25 mA drawn; current p->n through the
        # source is therefore negative (delivering).
        result = solve_dc(divider(), TECH)
        assert result.current("v1") == pytest.approx(-0.25e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        ckt = Circuit("ir")
        ckt.add(CurrentSource("i1", {"p": "gnd", "n": "x"}, dc=1e-3))
        ckt.add(Resistor("r1", {"a": "x", "b": "gnd"}, value=2e3))
        result = solve_dc(ckt, TECH)
        assert result.voltage("x") == pytest.approx(2.0, rel=1e-6)

    def test_vcvs_gain(self):
        from repro.netlist import Vcvs
        ckt = Circuit("vcvs")
        ckt.add(VoltageSource("vin", {"p": "a", "n": "gnd"}, dc=0.2))
        ckt.add(Vcvs("e1", {"p": "out", "n": "gnd", "cp": "a", "cn": "gnd"}, gain=5.0))
        ckt.add(Resistor("rl", {"a": "out", "b": "gnd"}, value=1e3))
        result = solve_dc(ckt, TECH)
        assert result.voltage("out") == pytest.approx(1.0, rel=1e-6)

    def test_unknown_net_lookup(self):
        result = solve_dc(divider(), TECH)
        with pytest.raises(KeyError, match="net"):
            result.voltage("nope")
        with pytest.raises(KeyError, match="element"):
            result.current("nope")


class TestMosfetBias:
    def test_diode_connected_nmos(self):
        # 20 uA into a diode-connected device: vgs = vth + sqrt(2 I / k).
        ckt = Circuit("diode")
        ckt.add(CurrentSource("ib", {"p": "gnd", "n": "bias"}, dc=20e-6))
        ckt.add(Mosfet("m1", {"d": "bias", "g": "bias", "s": "gnd", "b": "gnd"},
                       polarity=+1, width=4e-6, length=0.5e-6, n_units=4))
        result = solve_dc(ckt, TECH)
        k = TECH.nmos.kp * 4e-6 / 0.5e-6
        expected = TECH.nmos.vth0 + math.sqrt(2 * 20e-6 / k)
        assert result.voltage("bias") == pytest.approx(expected, abs=0.03)

    def test_simple_current_mirror_copies(self):
        ckt = Circuit("mirror")
        ckt.add(VoltageSource("vdd", {"p": "vdd", "n": "gnd"}, dc=1.1))
        ckt.add(CurrentSource("ib", {"p": "vdd", "n": "bias"}, dc=20e-6))
        kw = dict(polarity=+1, width=4e-6, length=0.5e-6, n_units=4)
        ckt.add(Mosfet("mref", {"d": "bias", "g": "bias", "s": "gnd", "b": "gnd"}, **kw))
        ckt.add(Mosfet("mout", {"d": "out", "g": "bias", "s": "gnd", "b": "gnd"}, **kw))
        ckt.add(VoltageSource("vprobe", {"p": "out", "n": "gnd"}, dc=0.55))
        result = solve_dc(ckt, TECH)
        # Probe current: mirror pulls ~20uA out of the probe (p->n positive
        # current means current into the node from the probe).
        i_out = result.current("vprobe")
        assert abs(i_out) == pytest.approx(20e-6, rel=0.1)

    def test_common_source_stage(self):
        ckt = Circuit("cs")
        ckt.add(VoltageSource("vdd", {"p": "vdd", "n": "gnd"}, dc=1.1))
        ckt.add(VoltageSource("vin", {"p": "in", "n": "gnd"}, dc=0.55))
        ckt.add(Resistor("rl", {"a": "vdd", "b": "out"}, value=20e3))
        ckt.add(Mosfet("m1", {"d": "out", "g": "in", "s": "gnd", "b": "gnd"},
                       polarity=+1, width=2e-6, length=0.2e-6, n_units=2))
        result = solve_dc(ckt, TECH)
        # Output must sit between the rails, below vdd (device conducting).
        assert 0.05 < result.voltage("out") < 1.05

    def test_kcl_balance_at_internal_node(self):
        # The mirror's bias node: source current in == diode current out.
        ckt = Circuit("diode2")
        ckt.add(CurrentSource("ib", {"p": "gnd", "n": "bias"}, dc=10e-6))
        ckt.add(Mosfet("m1", {"d": "bias", "g": "bias", "s": "gnd", "b": "gnd"},
                       polarity=+1, width=2e-6, length=0.5e-6, n_units=2))
        result = solve_dc(ckt, TECH)
        op = terminal_currents(
            TECH.nmos, 2e-6, 0.5e-6,
            result.voltage("bias"), result.voltage("bias"), 0.0, 0.0,
        )
        assert op.ids == pytest.approx(10e-6, rel=1e-3)


class TestWarmStartAndSweep:
    def test_warm_start_converges_faster(self):
        block = five_transistor_ota()
        cold = solve_dc(block.circuit, TECH)
        warm = solve_dc(block.circuit, TECH, x0=cold.x)
        assert warm.iterations <= cold.iterations
        assert warm.voltage("outp") == pytest.approx(cold.voltage("outp"), abs=1e-6)


@pytest.mark.parametrize("builder", [
    current_mirror, comparator, folded_cascode_ota, five_transistor_ota,
])
class TestLibraryBlocksConverge:
    def test_dc_converges(self, builder):
        block = builder()
        result = solve_dc(block.circuit, TECH)
        for net, v in result.voltages.items():
            assert -0.2 <= v <= 1.3, (net, v)

    def test_supply_delivers_current(self, builder):
        block = builder()
        result = solve_dc(block.circuit, TECH)
        assert result.current("vvdd") < 0  # delivering


class TestOperatingRegions:
    def test_folded_cascode_devices_saturated(self):
        block = folded_cascode_ota()
        result = solve_dc(block.circuit, TECH)
        ckt = block.circuit
        for name in ("m1", "m2", "mn1", "mn2", "mc1", "mc2", "mp1", "mp2"):
            m = ckt.device(name)
            op = terminal_currents(
                TECH.params_for(m.polarity), m.width, m.length,
                result.voltage(m.net("d")), result.voltage(m.net("g")),
                result.voltage(m.net("s")), result.voltage(m.net("b")),
            )
            assert op.saturated, f"{name} not saturated"

    def test_ota_output_near_midrail(self):
        block = folded_cascode_ota()
        result = solve_dc(block.circuit, TECH)
        assert 0.3 < result.voltage("outp") < 0.9
