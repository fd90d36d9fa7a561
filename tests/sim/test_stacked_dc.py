"""Bitwise: a stacked DC solve equals one solve per row.

``solve_dc`` with a list of source overrides runs the rows as one
stacked Newton on one binding (the comparator's balanced, plus and minus
inputs).  Each row must come back exactly as a one-row ``solve_dc`` call
returns it — solution bytes and iteration count — and the solver
counters must add up to the sequential calls' counts, also when a row
falls back into the gmin/source-stepping chain.
"""

import numpy as np
import pytest

from repro.eval.suites import _clamps
from repro.netlist.library import comparator
from repro.service.corpus import build_entry, list_corpus
from repro.sim import reset_solver_stats, solve_dc, solver_stats
from repro.sim.compiled import _row_indices, compiled_system
from repro.sim.dc import ConvergenceError
from repro.tech import generic_tech_40
from repro.variation import DeviceDelta

TECH = generic_tech_40()
COMPARATORS = {
    "comp": comparator,
    "comp_strongarm": lambda: build_entry(
        next(e for e in list_corpus() if e.name == "comp_strongarm")),
}


def _counts():
    stats = solver_stats()
    return stats.newton_iterations, stats.jacobian_factorizations


def _bench(name, seed):
    """A clamped comparator bench, random deltas and three input rows."""
    block = COMPARATORS[name]()
    circuit = block.circuit.copy_with(extra=_clamps(block))
    rng = np.random.default_rng(seed)
    deltas = {m.name: DeviceDelta(float(rng.normal(0.0, 4e-3)),
                                  float(rng.normal(0.0, 0.02)))
              for m in circuit.mosfets()}
    vcm = block.params["vcm"]
    overrides = [{"vvip": vcm + v / 2, "vvin": vcm - v / 2}
                 for v in (0.0, 2e-3, -2e-3)]
    return circuit, deltas, overrides


def _compare(circuit, deltas, overrides, seeds, **kwargs):
    system = compiled_system(circuit, TECH, deltas)
    reset_solver_stats()
    want = [solve_dc(circuit, TECH, deltas=deltas, x0=x0, source_values=sv,
                     system=system, **kwargs)
            for x0, sv in zip(seeds, overrides)]
    want_counts = _counts()
    reset_solver_stats()
    got = solve_dc(circuit, TECH, deltas=deltas, x0=list(seeds),
                   source_values=list(overrides), system=system, **kwargs)
    assert _counts() == want_counts
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.x.tobytes() == w.x.tobytes()
        assert g.iterations == w.iterations
        assert g.voltages == w.voltages
        assert g.branch_currents == w.branch_currents
    return got


@pytest.mark.parametrize("name", sorted(COMPARATORS))
@pytest.mark.parametrize("seed", range(4))
def test_stacked_rows_equal_sequential_solves(name, seed):
    circuit, deltas, overrides = _bench(name, seed)
    # Seeds as the suite passes them: a nearby solution, another one,
    # and a cold row.
    near = solve_dc(circuit, TECH, source_values=overrides[0]).x
    other = solve_dc(circuit, TECH, source_values=overrides[1]).x
    _compare(circuit, deltas, overrides, [near, other, None])
    _compare(circuit, deltas, overrides[1:], [near, None])
    _compare(circuit, deltas, overrides[:1], [other])


@pytest.mark.parametrize("name", sorted(COMPARATORS))
def test_row_in_homotopy_fallback(name):
    """A row whose plain Newton fails (a cold seed on a short budget)
    continues into gmin stepping on its own, its iterations counted as a
    one-row call counts them."""
    circuit, deltas, overrides = _bench(name, 7)
    near = solve_dc(circuit, TECH, source_values=overrides[0]).x
    got = _compare(circuit, deltas, overrides, [near, None, near], max_iter=8)
    assert got[1].iterations > 8 > got[0].iterations


def test_failing_row_reports_the_rows_before_it():
    circuit, deltas, overrides = _bench("comp", 7)
    near = solve_dc(circuit, TECH, source_values=overrides[0]).x
    system = compiled_system(circuit, TECH, deltas)
    first = solve_dc(circuit, TECH, deltas=deltas, x0=near,
                     source_values=overrides[0], system=system, max_iter=4)
    with pytest.raises(ConvergenceError):
        solve_dc(circuit, TECH, deltas=deltas, source_values=overrides[1],
                 system=system, max_iter=4)
    with pytest.raises(ConvergenceError) as info:
        solve_dc(circuit, TECH, deltas=deltas, x0=[near, None, near],
                 source_values=list(overrides), system=system, max_iter=4)
    assert [r.x.tobytes() for r in info.value.solved] == [first.x.tobytes()]


@pytest.mark.parametrize("size", [3, 8, 13, 21, 34])
def test_stacked_residual_product_is_per_row(size):
    """The stacked ``F`` is ``G[None] @ x[..., None]``: one matrix-vector
    product per row, the same bytes as the one-row ``G @ x``."""
    rng = np.random.default_rng(size)
    for __ in range(50):
        G = rng.normal(size=(size, size)) * 10.0 ** rng.integers(-6, 3)
        x = rng.normal(size=(4, size))
        stacked = (G[None] @ x[..., None])[..., 0]
        for row, x_row in zip(stacked, x):
            assert row.tobytes() == (G @ x_row).tobytes()


@pytest.mark.parametrize("name", sorted(COMPARATORS))
def test_stacked_assembly_rows_equal_one_row_assembly(name):
    circuit, deltas, overrides = _bench(name, 1)
    system = compiled_system(circuit, TECH, deltas)
    X = np.random.default_rng(5).normal(0.5, 0.3, size=(3, system.size))
    J, F = system.assemble_dc(X, source_values=overrides)
    for i, sv in enumerate(overrides):
        J1, F1 = system.assemble_dc(X[i:i + 1], source_values=[sv])
        assert J[i].tobytes() == J1[0].tobytes()
        assert F[i].tobytes() == F1[0].tobytes()
    assert 3 in system.topology.row_indices
    assert _row_indices(system.topology, 3) is system.topology.row_indices[3]
