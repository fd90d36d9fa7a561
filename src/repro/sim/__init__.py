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
batch K same-shape placements on it).  :mod:`repro.sim.mna` holds the
per-device reference assembler the equivalence tests compare it
against; it is not imported here.
"""

from repro.sim.ac import AcResult, logspace_frequencies, solve_ac
from repro.sim.batch import solve_ac_many, solve_dc_many
from repro.sim.compiled import (
    BatchedCompiledSystem,
    CompiledSystem,
    CompiledTopology,
    batched_system,
    clear_topology_cache,
    compiled_system,
    compiled_topology,
    structure_signature,
    topology_cache_info,
)
from repro.sim.dc import ConvergenceError, DcResult, solve_dc
from repro.sim.fastpath import (
    SolverStats,
    SolverTuning,
    get_solver_tuning,
    reset_solver_stats,
    solver_stats,
    solver_tuning,
)
from repro.sim.measures import (
    bandwidth_3db,
    db,
    dc_gain,
    phase_margin,
    supply_power,
    unity_gain_frequency,
)
from repro.sim.mosfet import (
    MosfetArrays,
    MosfetCaps,
    OpPoint,
    device_caps,
    terminal_currents,
    terminal_currents_array,
)

__all__ = [
    "AcResult",
    "BatchedCompiledSystem",
    "CompiledSystem",
    "CompiledTopology",
    "ConvergenceError",
    "DcResult",
    "MosfetArrays",
    "MosfetCaps",
    "OpPoint",
    "SolverStats",
    "SolverTuning",
    "bandwidth_3db",
    "batched_system",
    "clear_topology_cache",
    "compiled_system",
    "compiled_topology",
    "db",
    "dc_gain",
    "device_caps",
    "get_solver_tuning",
    "logspace_frequencies",
    "phase_margin",
    "reset_solver_stats",
    "solver_stats",
    "solver_tuning",
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
