"""AC analysis tests against analytic RC and amplifier responses."""

import math

import numpy as np
import pytest

from repro.netlist import (
    Capacitor,
    Circuit,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.sim import (
    bandwidth_3db,
    dc_gain,
    logspace_frequencies,
    solve_ac,
    solve_dc,
)
from repro.sim.mosfet import terminal_currents
from repro.tech import generic_tech_40

TECH = generic_tech_40()


def rc_lowpass(r=10e3, c=1e-12):
    ckt = Circuit("rc")
    ckt.add(VoltageSource("vin", {"p": "in", "n": "gnd"}, dc=0.0, ac=1.0))
    ckt.add(Resistor("r1", {"a": "in", "b": "out"}, value=r))
    ckt.add(Capacitor("c1", {"a": "out", "b": "gnd"}, value=c))
    return ckt


class TestRcLowpass:
    def setup_method(self):
        self.r, self.c = 10e3, 1e-12
        self.fp = 1.0 / (2 * math.pi * self.r * self.c)
        ckt = rc_lowpass(self.r, self.c)
        op = solve_dc(ckt, TECH)
        freqs = logspace_frequencies(self.fp / 1e3, self.fp * 1e3, 20)
        self.result = solve_ac(ckt, TECH, op.voltages, freqs)

    def test_dc_gain_unity(self):
        assert dc_gain(self.result.transfer("out")) == pytest.approx(1.0, rel=1e-6)

    def test_pole_location(self):
        bw = bandwidth_3db(self.result.freqs, self.result.transfer("out"))
        assert bw == pytest.approx(self.fp, rel=0.05)

    def test_phase_at_pole(self):
        h = self.result.transfer("out")
        k = int(np.argmin(np.abs(self.result.freqs - self.fp)))
        assert math.degrees(np.angle(h[k])) == pytest.approx(-45.0, abs=4.0)

    def test_high_frequency_rolloff_20db_per_decade(self):
        h = np.abs(self.result.transfer("out"))
        f = self.result.freqs
        k1 = int(np.argmin(np.abs(f - 100 * self.fp)))
        k2 = int(np.argmin(np.abs(f - 1000 * self.fp)))
        slope_db = 20 * math.log10(h[k2] / h[k1])
        assert slope_db == pytest.approx(-20.0, abs=1.0)


class TestCommonSourceAmp:
    def setup_method(self):
        self.ckt = Circuit("cs")
        self.ckt.add(VoltageSource("vdd", {"p": "vdd", "n": "gnd"}, dc=1.1))
        self.ckt.add(VoltageSource("vin", {"p": "in", "n": "gnd"}, dc=0.55, ac=1.0))
        self.ckt.add(Resistor("rl", {"a": "vdd", "b": "out"}, value=20e3))
        self.ckt.add(Capacitor("cl", {"a": "out", "b": "gnd"}, value=1e-12))
        self.ckt.add(Mosfet("m1", {"d": "out", "g": "in", "s": "gnd", "b": "gnd"},
                            polarity=+1, width=2e-6, length=0.2e-6, n_units=2))
        self.op = solve_dc(self.ckt, TECH)
        freqs = logspace_frequencies(1e3, 1e11, 10)
        self.result = solve_ac(self.ckt, TECH, self.op.voltages, freqs)

    def _analytic_gain(self):
        m = self.ckt.device("m1")
        op = terminal_currents(
            TECH.nmos, m.width, m.length,
            self.op.voltage("out"), self.op.voltage("in"), 0.0, 0.0,
        )
        r_load = 20e3
        r_out = 1.0 / (op.gds + 1.0 / r_load)
        return op.gm * r_out

    def test_low_frequency_gain_matches_analytic(self):
        gain = dc_gain(self.result.transfer("out"))
        assert gain == pytest.approx(self._analytic_gain(), rel=0.02)

    def test_gain_is_inverting(self):
        h = self.result.transfer("out")
        assert math.degrees(abs(np.angle(h[0]))) == pytest.approx(180.0, abs=2.0)

    def test_bandwidth_set_by_load(self):
        bw = bandwidth_3db(self.result.freqs, self.result.transfer("out"))
        r_eff = 1.0 / (1.0 / 20e3)  # dominated by the load resistor
        f_expected = 1.0 / (2 * math.pi * r_eff * 1e-12)
        # Device output conductance and junction caps shift it slightly.
        assert bw == pytest.approx(f_expected, rel=0.30)


class TestValidation:
    def test_frequency_grid_validation(self):
        with pytest.raises(ValueError, match="f_start"):
            logspace_frequencies(0.0, 1e6)
        with pytest.raises(ValueError, match="f_start"):
            logspace_frequencies(1e6, 1e3)

    def test_missing_op_net_rejected(self):
        ckt = rc_lowpass()
        ckt.add(Mosfet("m1", {"d": "out", "g": "in", "s": "gnd", "b": "gnd"},
                       polarity=+1, width=1e-6, length=0.2e-6))
        with pytest.raises(KeyError, match="operating point"):
            solve_ac(ckt, TECH, {"in": 0.0}, np.array([1e6]))

    def test_unknown_net_transfer(self):
        ckt = rc_lowpass()
        op = solve_dc(ckt, TECH)
        result = solve_ac(ckt, TECH, op.voltages, np.array([1e6]))
        with pytest.raises(KeyError, match="net"):
            result.transfer("ghost")
