"""Transient analysis tests: RC step response and latch regeneration."""

import math

import numpy as np
import pytest

from repro.netlist import (
    Capacitor,
    Circuit,
    Mosfet,
    Resistor,
    VoltageSource,
    comparator,
)
from repro.sim import solve_transient, step_waveform
from repro.tech import generic_tech_40

TECH = generic_tech_40()


def rc_circuit(r=10e3, c=1e-12):
    ckt = Circuit("rc_tran")
    ckt.add(VoltageSource("vin", {"p": "in", "n": "gnd"}, dc=0.0))
    ckt.add(Resistor("r1", {"a": "in", "b": "out"}, value=r))
    ckt.add(Capacitor("c1", {"a": "out", "b": "gnd"}, value=c))
    return ckt


class TestRcStep:
    def test_charging_matches_analytic(self):
        r, c = 10e3, 1e-12
        tau = r * c
        result = solve_transient(
            rc_circuit(r, c), TECH, t_stop=5 * tau, dt=tau / 200,
            waveforms={"vin": step_waveform(0.0, 0.0, 1.0, t_rise=tau / 200)},
        )
        v = result.waveform("out")
        t = result.times
        # Compare at 1, 2, 3 tau (skip the ramp region).
        for n_tau in (1.0, 2.0, 3.0):
            k = int(np.argmin(np.abs(t - n_tau * tau)))
            expected = 1.0 - math.exp(-n_tau)
            assert v[k] == pytest.approx(expected, abs=0.02)

    def test_crossing_time(self):
        r, c = 10e3, 1e-12
        tau = r * c
        result = solve_transient(
            rc_circuit(r, c), TECH, t_stop=5 * tau, dt=tau / 200,
            waveforms={"vin": step_waveform(0.0, 0.0, 1.0, t_rise=tau / 500)},
        )
        t_half = result.crossing_time("out", 0.5)
        assert t_half == pytest.approx(tau * math.log(2.0), rel=0.05)

    def test_no_crossing_returns_none(self):
        result = solve_transient(rc_circuit(), TECH, t_stop=1e-9, dt=1e-11)
        assert result.crossing_time("out", 0.5) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            solve_transient(rc_circuit(), TECH, t_stop=1e-9, dt=0.0)
        with pytest.raises(ValueError, match="dt"):
            solve_transient(rc_circuit(), TECH, t_stop=1e-9, dt=1e-8)
        with pytest.raises(ValueError, match="t_rise"):
            step_waveform(0.0, 0.0, 1.0, t_rise=0.0)

    def test_waveform_on_a_non_source_rejected(self):
        # A waveform keyed by anything but an independent source would be
        # silently ignored.
        step = step_waveform(0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="'r1' is a Resistor"):
            solve_transient(rc_circuit(), TECH, t_stop=1e-9, dt=1e-11,
                            waveforms={"r1": step})
        with pytest.raises(KeyError, match="ghost"):
            solve_transient(rc_circuit(), TECH, t_stop=1e-9, dt=1e-11,
                            waveforms={"ghost": step})

    def test_unknown_net_rejected(self):
        result = solve_transient(rc_circuit(), TECH, t_stop=1e-10, dt=1e-11)
        with pytest.raises(KeyError, match="net"):
            result.waveform("ghost")


class TestLatchRegeneration:
    def test_comparator_outputs_diverge_from_seed(self):
        """The StrongARM latch regenerates a seeded imbalance: outputs split
        to the rails, the direction set by the seed."""
        block = comparator()
        # Evaluation phase, balanced inputs, seeded output imbalance.
        result = solve_transient(
            block.circuit, TECH, t_stop=2e-9, dt=5e-12,
            ic={"outp": 0.57, "outn": 0.53},
        )
        vp = result.waveform("outp")
        vn = result.waveform("outn")
        assert vp[-1] - vn[-1] > 0.5  # decided, correct direction
        assert vp[-1] > 0.9
        assert vn[-1] < 0.4

    def test_comparator_decision_follows_input(self):
        block = comparator()
        # vin above vip: m2 pulls p2 harder, outp should fall.
        result = solve_transient(
            block.circuit, TECH, t_stop=2e-9, dt=5e-12,
            waveforms={"vvip": lambda t: 0.68, "vvin": lambda t: 0.72},
            ic={"outp": 0.55, "outn": 0.55},
        )
        vp = result.waveform("outp")
        vn = result.waveform("outn")
        assert vn[-1] - vp[-1] > 0.5
