"""Tests for generic measurement extraction on synthetic transfer functions."""

import math

import numpy as np
import pytest

from repro.sim import (
    bandwidth_3db,
    db,
    dc_gain,
    phase_margin,
    supply_power,
    unity_gain_frequency,
)


def single_pole(freqs, a0=1000.0, fp=1e4):
    return a0 / (1.0 + 1j * freqs / fp)


def two_pole(freqs, a0=1000.0, fp1=1e4, fp2=1e7):
    return a0 / ((1.0 + 1j * freqs / fp1) * (1.0 + 1j * freqs / fp2))


FREQS = np.logspace(1, 10, 400)


class TestBasics:
    def test_db(self):
        assert db(10.0) == pytest.approx(20.0)
        assert db(1.0) == pytest.approx(0.0)

    def test_dc_gain(self):
        h = single_pole(FREQS)
        assert dc_gain(h) == pytest.approx(1000.0, rel=1e-3)

    def test_dc_gain_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dc_gain(np.array([]))

    def test_supply_power_sign(self):
        # Delivering supply: negative branch current, positive power.
        assert supply_power(1.1, -1e-3) == pytest.approx(1.1e-3)


class TestSinglePole:
    def test_bandwidth(self):
        h = single_pole(FREQS, a0=1000.0, fp=1e4)
        assert bandwidth_3db(FREQS, h) == pytest.approx(1e4, rel=0.03)

    def test_unity_gain_frequency(self):
        # GBW product: f_unity ~ a0 * fp for a single pole.
        h = single_pole(FREQS, a0=1000.0, fp=1e4)
        assert unity_gain_frequency(FREQS, h) == pytest.approx(1e7, rel=0.03)

    def test_phase_margin_near_90(self):
        h = single_pole(FREQS, a0=1000.0, fp=1e4)
        assert phase_margin(FREQS, h) == pytest.approx(90.0, abs=2.0)

    def test_no_unity_crossing_returns_none(self):
        h = single_pole(FREQS, a0=0.5, fp=1e4)  # gain never reaches 1
        assert unity_gain_frequency(FREQS, h) is None
        assert phase_margin(FREQS, h) is None


class TestTwoPole:
    def test_phase_margin_reduced_by_second_pole(self):
        # Crossover lands at ~7.9 MHz (the second pole pulls it below
        # a0*fp1 = 10 MHz); phase there is -90 - atan(0.79) ~ -128 deg.
        h = two_pole(FREQS, a0=1000.0, fp1=1e4, fp2=1e7)
        pm = phase_margin(FREQS, h)
        assert pm == pytest.approx(52.0, abs=4.0)


class TestBandwidthEdgeCases:
    def test_flat_response_has_no_bandwidth(self):
        h = np.full(len(FREQS), 5.0 + 0j)
        assert bandwidth_3db(FREQS, h) is None

    def test_zero_dc_gain(self):
        h = np.zeros(len(FREQS), dtype=complex)
        assert bandwidth_3db(FREQS, h) is None


def _crossing_loop(freqs, values, target):
    """The scalar first-crossing scan the vectorized search replaced."""
    for k in range(1, len(values)):
        a, b = values[k - 1], values[k]
        if a >= target > b:
            la, lb = math.log10(freqs[k - 1]), math.log10(freqs[k])
            frac = (a - target) / (a - b)
            return 10.0 ** (la + frac * (lb - la))
    return None


class TestCrossingSearch:
    def test_matches_scalar_scan_bitwise(self):
        from repro.sim.measures import _interp_log_crossing

        rng = np.random.default_rng(4)
        freqs = np.logspace(3, 10, 57)
        for trial in range(2000):
            values = np.abs(rng.normal(size=57)) * 10 ** rng.uniform(-2, 2)
            if trial % 3 == 0:
                values = np.sort(values)[::-1]
            if trial % 5 == 0:
                values[rng.integers(0, 57)] = np.nan
            target = 1.0 if trial % 2 else float(values[0]) / math.sqrt(2.0)
            want = _crossing_loop(freqs, values, target)
            got = _interp_log_crossing(freqs, values, target)
            if want is None:
                assert got is None
            else:
                assert type(got) is type(want)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_phase_margin_at_known_unity_matches(self):
        from repro.sim.measures import phase_margin_at

        h = two_pole(FREQS)
        f_unity = unity_gain_frequency(FREQS, h)
        assert phase_margin_at(FREQS, h, f_unity) == phase_margin(FREQS, h)
        assert phase_margin_at(FREQS, h, None) is None
