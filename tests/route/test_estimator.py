"""Tests for wirelength estimation."""

import pytest

from repro.layout import banded_placement
from repro.netlist import current_mirror, five_transistor_ota
from repro.route import net_hpwls, net_pin_plan, signal_nets, total_wirelength
from repro.tech import generic_tech_40

TECH = generic_tech_40()


class TestSignalNets:
    def test_rails_excluded(self):
        block = five_transistor_ota()
        nets = signal_nets(block.circuit)
        assert "vdd" not in nets
        assert "gnd" not in nets

    def test_single_pin_nets_excluded(self):
        block = five_transistor_ota()
        nets = signal_nets(block.circuit)
        # Inputs vip/vin touch only one placeable device each.
        assert "vip" not in nets
        assert "vin" not in nets

    def test_internal_nets_included(self):
        block = five_transistor_ota()
        nets = signal_nets(block.circuit)
        assert "tail" in nets
        assert "x" in nets
        assert "outp" in nets


class TestHpwl:
    def test_pin_positions_per_attachment(self):
        block = five_transistor_ota()
        # Net "x": m1 drain + mp1 drain + mp1 gate + mp2 gate = 4 pins
        # (3 devices, mp1 attached twice).
        assert len(net_pin_plan(block.circuit).pins_by_net["x"]) == 4

    def test_hpwl_zero_for_degenerate(self):
        # A net on a single placeable device is not routed: no HPWL.
        block = five_transistor_ota()
        placement = banded_placement(block, "sequential")
        assert "vip" not in net_hpwls(block.circuit, placement, TECH)

    def test_hpwl_positive_for_spanning_net(self):
        block = five_transistor_ota()
        placement = banded_placement(block, "sequential")
        assert net_hpwls(block.circuit, placement, TECH)["tail"] > 0

    def test_hpwl_shrinks_when_devices_close(self):
        block = current_mirror()
        near = banded_placement(block, "sequential")
        hp_near = net_hpwls(block.circuit, near, TECH)["bias"]
        # Spread the mirror apart: move mo2's units to the far corner area.
        far = near.copy()
        free = [
            (c, r)
            for r in range(far.canvas.rows)
            for c in range(far.canvas.cols)
            if far.is_free((c, r))
        ]
        targets = {("mo2", k): free[-(k + 1)] for k in range(4)}
        far.move_many(targets)
        hp_far = net_hpwls(block.circuit, far, TECH)["bias"]
        assert hp_far > hp_near

    def test_total_wirelength_sums_nets(self):
        block = five_transistor_ota()
        placement = banded_placement(block, "sequential")
        total = total_wirelength(block.circuit, placement, TECH)
        hpwls = net_hpwls(block.circuit, placement, TECH)
        parts = sum(hpwls[n] for n in signal_nets(block.circuit))
        assert total == pytest.approx(parts)
