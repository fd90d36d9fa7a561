"""Tests for global process corners."""

import pytest

from repro.netlist import five_transistor_ota
from repro.variation import CORNERS, DeviceDelta, ProcessCorner, corner


class TestCornerDefinitions:
    def test_five_corners(self):
        assert set(CORNERS) == {"tt", "ff", "ss", "fs", "sf"}

    def test_tt_is_zero(self):
        tt = corner("tt")
        assert tt.delta_for(+1) == DeviceDelta()
        assert tt.delta_for(-1) == DeviceDelta()

    def test_ff_is_fast(self):
        ff = corner("FF")  # case-insensitive
        assert ff.delta_for(+1).dvth < 0
        assert ff.delta_for(+1).dbeta_rel > 0

    def test_skewed_corners_oppose(self):
        fs = corner("fs")
        assert fs.delta_for(+1).dvth < 0  # fast NMOS
        assert fs.delta_for(-1).dvth > 0  # slow PMOS

    def test_unknown_corner_rejected(self):
        with pytest.raises(KeyError, match="unknown corner"):
            corner("xx")

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            corner("tt").delta_for(0)

    def test_deltas_for_circuit(self):
        ckt = five_transistor_ota().circuit
        deltas = corner("ss").deltas(ckt)
        assert set(deltas) == {m.name for m in ckt.mosfets()}
