"""Model-level tests: the MOSFET equations against analytic expectations.

The most load-bearing test here is the finite-difference validation of the
terminal partial derivatives — a wrong Jacobian poisons Newton convergence
in ways that are miserable to debug downstream.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.mosfet import device_caps, terminal_currents
from repro.tech import nominal_nmos_40, nominal_pmos_40

NMOS = nominal_nmos_40()
PMOS = nominal_pmos_40()
W, L = 2e-6, 0.2e-6


class TestSquareLawRegions:
    def test_saturation_current_magnitude(self):
        # Strong inversion, deep saturation: ids ~ 0.5 k (W/L) vov^2 (1 + lam vds).
        vgs, vds = 0.8, 0.9
        op = terminal_currents(NMOS, W, L, vd=vds, vg=vgs, vs=0.0, vb=0.0)
        vov = vgs - NMOS.vth0
        k = NMOS.kp * W / L
        expected = 0.5 * k * vov**2 * (1.0 + NMOS.lam_at(L) * vds)
        assert op.ids == pytest.approx(expected, rel=0.05)  # softplus smoothing
        assert op.saturated

    def test_triode_region_flagged(self):
        op = terminal_currents(NMOS, W, L, vd=0.05, vg=0.9, vs=0.0, vb=0.0)
        assert not op.saturated
        assert op.ids > 0

    def test_subthreshold_current_is_small(self):
        op = terminal_currents(NMOS, W, L, vd=0.6, vg=0.2, vs=0.0, vb=0.0)
        on = terminal_currents(NMOS, W, L, vd=0.6, vg=0.8, vs=0.0, vb=0.0)
        assert 0 < op.ids < on.ids * 1e-3

    def test_zero_vds_zero_current(self):
        op = terminal_currents(NMOS, W, L, vd=0.0, vg=0.9, vs=0.0, vb=0.0)
        assert op.ids == pytest.approx(0.0, abs=1e-15)

    def test_current_scales_with_geometry(self):
        op1 = terminal_currents(NMOS, W, L, vd=0.8, vg=0.8, vs=0.0, vb=0.0)
        op2 = terminal_currents(NMOS, 2 * W, L, vd=0.8, vg=0.8, vs=0.0, vb=0.0)
        assert op2.ids == pytest.approx(2 * op1.ids, rel=1e-9)

    def test_body_effect_reduces_current(self):
        no_bias = terminal_currents(NMOS, W, L, vd=0.8, vg=0.7, vs=0.0, vb=0.0)
        reverse = terminal_currents(NMOS, W, L, vd=0.8, vg=0.7, vs=0.0, vb=-0.4)
        assert reverse.ids < no_bias.ids
        assert reverse.vth > no_bias.vth


class TestSymmetryAndPolarity:
    def test_drain_source_swap_antisymmetry(self):
        fwd = terminal_currents(NMOS, W, L, vd=0.3, vg=0.9, vs=0.1, vb=0.0)
        rev = terminal_currents(NMOS, W, L, vd=0.1, vg=0.9, vs=0.3, vb=0.0)
        assert rev.ids == pytest.approx(-fwd.ids, rel=1e-9)

    def test_pmos_conducts_downward(self):
        # Source at vdd, gate low: PMOS on; drain current is negative
        # (conventional current flows source -> drain).
        op = terminal_currents(PMOS, W, L, vd=0.3, vg=0.2, vs=1.1, vb=1.1)
        assert op.ids < 0

    def test_pmos_off_when_gate_high(self):
        off = terminal_currents(PMOS, W, L, vd=0.3, vg=1.1, vs=1.1, vb=1.1)
        on = terminal_currents(PMOS, W, L, vd=0.3, vg=0.2, vs=1.1, vb=1.1)
        assert abs(off.ids) < abs(on.ids) * 1e-3

    def test_pmos_mirrors_nmos_exactly(self):
        # PMOS at negated bias must equal negated NMOS current if the
        # parameter sets matched; use the NMOS set for both flavours.
        import dataclasses
        pseudo_pmos = dataclasses.replace(NMOS, polarity=-1)
        n = terminal_currents(NMOS, W, L, vd=0.6, vg=0.8, vs=0.0, vb=0.0)
        p = terminal_currents(pseudo_pmos, W, L, vd=-0.6, vg=-0.8, vs=0.0, vb=0.0)
        assert p.ids == pytest.approx(-n.ids, rel=1e-12)


voltages = st.floats(min_value=-1.2, max_value=1.2, allow_nan=False)


class TestDerivatives:
    @given(vd=voltages, vg=voltages, vs=voltages, vb=st.floats(min_value=-1.2, max_value=0.0))
    @settings(max_examples=200, deadline=None)
    def test_nmos_partials_match_finite_difference(self, vd, vg, vs, vb):
        h = 1e-7
        op = terminal_currents(NMOS, W, L, vd, vg, vs, vb)
        partials = {"d": op.gdd, "g": op.gdg, "s": op.gds_, "b": op.gdb}
        base = dict(vd=vd, vg=vg, vs=vs, vb=vb)
        # The model is C^1 but not C^2 (curvature flips sign at vds = 0 and
        # the subthreshold knee is nanovolt-sharp), so a central difference
        # carries an O(k*h) error floor in addition to the relative term.
        k_dev = NMOS.kp * W / L
        for term, analytic in partials.items():
            hi = dict(base); hi["v" + term] += h
            lo = dict(base); lo["v" + term] -= h
            num = (terminal_currents(NMOS, W, L, **hi).ids
                   - terminal_currents(NMOS, W, L, **lo).ids) / (2 * h)
            scale = max(abs(analytic), abs(num), 1e-8)
            allow = 5e-3 * scale + 2.0 * k_dev * h
            assert abs(analytic - num) < allow, (term, analytic, num)

    @given(vd=voltages, vg=voltages, vs=voltages)
    @settings(max_examples=100, deadline=None)
    def test_pmos_partials_match_finite_difference(self, vd, vg, vs):
        h = 1e-7
        vb = 1.1
        op = terminal_currents(PMOS, W, L, vd, vg, vs, vb)
        partials = {"d": op.gdd, "g": op.gdg, "s": op.gds_}
        base = dict(vd=vd, vg=vg, vs=vs, vb=vb)
        k_dev = PMOS.kp * W / L
        for term, analytic in partials.items():
            hi = dict(base); hi["v" + term] += h
            lo = dict(base); lo["v" + term] -= h
            num = (terminal_currents(PMOS, W, L, **hi).ids
                   - terminal_currents(PMOS, W, L, **lo).ids) / (2 * h)
            scale = max(abs(analytic), abs(num), 1e-8)
            allow = 5e-3 * scale + 2.0 * k_dev * h
            assert abs(analytic - num) < allow, (term, analytic, num)

    def test_gm_positive_in_strong_inversion(self):
        op = terminal_currents(NMOS, W, L, vd=0.8, vg=0.8, vs=0.0, vb=0.0)
        assert op.gm > 0
        assert op.gds > 0


class TestContinuity:
    def test_triode_saturation_boundary_is_smooth(self):
        # Fine sweep across the vds = vov boundary (~0.35 V): the current
        # must be continuous — adjacent steps never jump by more than a few
        # times the median step.
        vgs = 0.8
        vds_grid = [0.30 + 0.0005 * i for i in range(201)]
        ids = [
            terminal_currents(NMOS, W, L, vd=v, vg=vgs, vs=0.0, vb=0.0).ids
            for v in vds_grid
        ]
        steps = [abs(ids[i + 1] - ids[i]) for i in range(len(ids) - 1)]
        # The slope decays smoothly through the knee and then flattens to
        # the channel-length-modulation slope; it must never spike upward.
        for i in range(1, len(steps)):
            assert steps[i] <= 1.05 * steps[i - 1] + 1e-15, (i, steps[i - 1], steps[i])

    def test_monotone_in_vds(self):
        vgs = 0.8
        ids = [
            terminal_currents(NMOS, W, L, vd=0.01 * i, vg=vgs, vs=0.0, vb=0.0).ids
            for i in range(111)
        ]
        assert all(ids[i + 1] >= ids[i] for i in range(len(ids) - 1))


class TestCaps:
    def test_cap_magnitudes(self):
        caps = device_caps(NMOS, W, L)
        assert caps.cgs > caps.cgd > 0
        assert caps.cdb > 0
        # fF scale for a 2u/0.2u device.
        assert 1e-16 < caps.cgs < 1e-14

    def test_caps_scale_with_width(self):
        small = device_caps(NMOS, W, L)
        big = device_caps(NMOS, 2 * W, L)
        assert big.cgs == pytest.approx(2 * small.cgs, rel=1e-9)
