"""The OTA suites' open-loop AC sweep solves only the grid points the
metrics read, and the metrics equal those of the full grid bit for bit.

* synthetic transfers (crossings anywhere, none at all, several, phase
  wraps) through the sweep with every starting span, one row at a time
  and all rows at once;
* real library OTAs: the sweep against one full-grid ``solve_ac`` at the
  same operating point.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.suites import (
    AC_FREQS,
    open_loop_metrics,
    open_loop_metrics_rows,
    open_loop_transfers,
)
from repro.layout.generators import random_walk_placements
from repro.netlist.devices import Vcvs
from repro.netlist.library import (
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)
from repro.route.parasitics import annotate_parasitics
from repro.sim.ac import solve_ac
from repro.sim.compiled import compiled_system
from repro.sim.dc import solve_dc
from repro.sim.measures import db, dc_gain, phase_margin, unity_gain_frequency
from repro.tech import generic_tech_40
from repro.variation import DeviceDelta

N = len(AC_FREQS)


def _full_grid_metrics(h):
    """The metrics read from the whole grid, as the suites used to."""
    gain = dc_gain(h)
    f_unity = unity_gain_frequency(AC_FREQS, h)
    pm = phase_margin(AC_FREQS, h)
    return (float(db(gain)) if gain > 0 else 0.0,
            f_unity or 0.0,
            pm if pm is not None else 0.0)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


class _Grid:
    """A ``solve(lo, hi)`` over precomputed rows that logs each call."""

    def __init__(self, rows):
        self.rows = rows
        self.calls = []

    def __call__(self, lo, hi):
        self.calls.append((lo, hi))
        return self.rows[:, lo:hi]


def _transfer(mags, phases):
    return np.asarray(mags) * np.exp(1j * np.asarray(phases))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.sampled_from([0.0, 0.3, 0.999, 1.0, 1.001, 3.0, 1e4]),
                     min_size=N, max_size=N),
            st.lists(st.floats(-7.0, 7.0), min_size=N, max_size=N),
        ),
        min_size=1, max_size=4,
    ),
    span=st.one_of(st.none(), st.integers(1, N)),
)
def test_sweep_metrics_equal_full_grid_bitwise(rows, span):
    h = np.array([_transfer(m, p) for m, p in rows])
    warm = {} if span is None else {"ota/ac_span": span}
    grid = _Grid(h)
    swept = open_loop_transfers(grid, warm)
    assert swept.shape[0] == len(h)
    assert np.array_equal(swept, h[:, : swept.shape[1]])
    # One solve, or two covering the grid without overlap.
    assert grid.calls[0][0] == 0
    assert len(grid.calls) == 1 or grid.calls[1] == (grid.calls[0][1], N)
    for row, full in zip(swept, h):
        assert _bits(open_loop_metrics(row)) == _bits(_full_grid_metrics(full))
    # All rows at once, as the batched suite reads them.
    for metrics, full in zip(open_loop_metrics_rows(swept), h):
        assert _bits(metrics) == _bits(_full_grid_metrics(full))
    # The next sweep starts from what this one needed.
    assert 1 <= warm["ota/ac_span"] <= N


def test_sweep_stops_one_point_past_the_crossing():
    mags = np.geomspace(1e3, 1e-3, N)   # crosses 1 between points 28, 29
    h = (mags * np.exp(-1j * np.linspace(0, 3, N)))[None]
    warm = {}
    grid = _Grid(h)
    open_loop_transfers(grid, warm)
    assert grid.calls == [(0, N)]        # cold: the whole grid
    assert warm["ota/ac_span"] == 31
    grid.calls.clear()
    open_loop_transfers(grid, warm)
    assert grid.calls == [(0, 31)]       # warm: only what is read


def test_sweep_without_crossing_reads_the_whole_grid():
    h = np.full((1, N), 10.0 + 0j)
    warm = {"ota/ac_span": 5}
    grid = _Grid(h)
    swept = open_loop_transfers(grid, warm)
    assert grid.calls == [(0, 5), (5, N)]
    assert swept.shape == (1, N)
    assert warm["ota/ac_span"] == N
    gain_db, gbw, pm = open_loop_metrics(swept[0])
    assert (gbw, pm) == (0.0, 0.0)


@pytest.mark.parametrize(
    "builder", [two_stage_ota, folded_cascode_ota, five_transistor_ota])
def test_library_sweeps_match_one_full_grid_solve(builder):
    tech = generic_tech_40()
    block = builder()
    rng = np.random.default_rng(11)
    feedback = Vcvs("vvin", {"p": "vin", "n": "gnd", "cp": "outp",
                             "cn": "gnd"}, gain=1.0)
    warm = {}
    for placement in random_walk_placements(block, 6, seed=2):
        annotated = annotate_parasitics(block.circuit, placement, tech)
        deltas = {
            m.name: DeviceDelta(dvth=float(rng.normal(0.0, 5e-3)),
                                dbeta_rel=float(rng.normal(0.0, 0.02)))
            for m in block.circuit.mosfets()
        }
        op = solve_dc(annotated.copy_with(replacements={"vvin": feedback}),
                      tech, deltas=deltas)
        bench = annotated.copy_with(replacements={
            "vvip": dataclasses.replace(annotated.device("vvip"), ac=+0.5),
            "vvin": dataclasses.replace(annotated.device("vvin"), ac=-0.5),
        })
        system = compiled_system(bench, tech, deltas)

        def solve(lo, hi):
            ac = solve_ac(bench, tech, op.voltages, AC_FREQS[lo:hi],
                          deltas=deltas, system=system, nets=("outp",))
            return ac.transfer("outp")[None]

        full = solve(0, N)[0]
        swept = open_loop_transfers(solve, warm)[0]
        assert np.array_equal(swept, full[: len(swept)])
        assert _bits(open_loop_metrics(swept)) == _bits(
            _full_grid_metrics(full))
