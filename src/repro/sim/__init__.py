"""SPICE-class circuit simulation substrate.

A compact but real analog simulator: modified nodal analysis with a
smoothed square-law MOSFET model, damped-Newton DC with gmin/source
stepping, and small-signal AC.  It stands in for the Spectre/Calibre
flow the paper used — the metrics the placement loop optimizes (offset,
mismatch, gain, bandwidth, phase margin, delay, power) are all
first-order functions of device parameter deltas and parasitics, which
this engine models faithfully.

Every analysis runs on one engine, the compiled MNA assembler of
:mod:`repro.sim.compiled` (:func:`solve_dc_many` / :func:`solve_ac_many`
solve K placements of one testbench on its binding rebound with one row
per placement).  :mod:`repro.sim.mna` holds the
per-device reference assembler the equivalence tests compare it
against; it is not imported here.
"""

#: Export → defining module (PEP 562): exports load on first access, so
#: a batch-1 run does not load the placement-batched
#: solvers of :mod:`repro.sim.batch`.
_LAZY = {
    "AcResult": "repro.sim.ac",
    "logspace_frequencies": "repro.sim.ac",
    "solve_ac": "repro.sim.ac",
    "solve_ac_many": "repro.sim.batch",
    "solve_dc_many": "repro.sim.batch",
    "CompiledSystem": "repro.sim.compiled",
    "CompiledTopology": "repro.sim.compiled",
    "clear_topology_cache": "repro.sim.compiled",
    "compiled_system": "repro.sim.compiled",
    "compiled_topology": "repro.sim.compiled",
    "structure_signature": "repro.sim.compiled",
    "topology_cache_info": "repro.sim.compiled",
    "ConvergenceError": "repro.sim.dc",
    "DcResult": "repro.sim.dc",
    "solve_dc": "repro.sim.dc",
    "SolverStats": "repro.sim.fastpath",
    "reset_solver_stats": "repro.sim.fastpath",
    "solver_stats": "repro.sim.fastpath",
    "bandwidth_3db": "repro.sim.measures",
    "db": "repro.sim.measures",
    "dc_gain": "repro.sim.measures",
    "phase_margin": "repro.sim.measures",
    "supply_power": "repro.sim.measures",
    "unity_gain_frequency": "repro.sim.measures",
    "MosfetArrays": "repro.sim.mosfet",
    "MosfetCaps": "repro.sim.mosfet",
    "OpPoint": "repro.sim.mosfet",
    "device_caps": "repro.sim.mosfet",
    "terminal_currents": "repro.sim.mosfet",
    "terminal_currents_array": "repro.sim.mosfet",
}

__all__ = [
    "AcResult",
    "CompiledSystem",
    "CompiledTopology",
    "ConvergenceError",
    "DcResult",
    "MosfetArrays",
    "MosfetCaps",
    "OpPoint",
    "SolverStats",
    "bandwidth_3db",
    "clear_topology_cache",
    "compiled_system",
    "compiled_topology",
    "db",
    "dc_gain",
    "device_caps",
    "logspace_frequencies",
    "phase_margin",
    "reset_solver_stats",
    "solver_stats",
    "solve_ac",
    "solve_ac_many",
    "solve_dc",
    "solve_dc_many",
    "structure_signature",
    "supply_power",
    "terminal_currents",
    "terminal_currents_array",
    "topology_cache_info",
    "unity_gain_frequency",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
