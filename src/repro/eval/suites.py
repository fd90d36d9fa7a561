"""Circuit-specific measurement protocols (the "testbench" layer).

Each block kind has a set of testbenches (:data:`BENCHES`), built once
per evaluator: every bench circuit is compiled and bound on
construction (its topology comes from the global
:func:`~repro.sim.compiled.compiled_topology` cache), and a placement
only rebinds its values (:meth:`~repro.sim.compiled.CompiledSystem
.rebind`) — the variation deltas of the MOSFETs and, for an AC bench,
the parasitic capacitors (:mod:`repro.route.parasitics`).  A placement
never changes a bench's structure.  The suites (:data:`SUITES`) take
those benches plus one placement's device deltas and produce the
paper's metrics for that circuit class:

* :func:`measure_cm` — static current mismatch of the mirror outputs;
* :func:`measure_comp` — clamped-latch input-referred offset, regeneration
  delay, power;
* :func:`measure_ota` — unity-feedback offset, open-loop AC (gain, GBW,
  phase margin), power.

DC benches carry no parasitic capacitors: capacitors are open at DC and
add no node, so a DC solution does not depend on them.

All suites also report bounding-box area and estimated wirelength.  The
protocols mirror standard silicon characterisation practice; deviations
forced by the simulator substrate are noted inline and in DESIGN.md.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.eval.metrics import Metrics
from repro.eval.warm import dc_features, seed_dc, store_dc
from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.netlist.devices import Capacitor, Mosfet, Vcvs, VoltageSource
from repro.netlist.library import AnalogBlock
from repro.route.estimator import signal_nets, total_wirelength
from repro.route.parasitics import (
    C_FLOOR,
    parasitic_capacitors,
    parasitic_caps,
)
from repro.sim.ac import logspace_frequencies, solve_ac
from repro.sim.compiled import compiled_system
from repro.sim.dc import ConvergenceError, DcResult, solve_dc
from repro.sim.measures import (
    db,
    log_crossing_at,
    phase_margin_from,
    supply_power,
)
from repro.sim.mosfet import device_caps, terminal_currents
from repro.tech import Technology
from repro.variation import DeviceDelta

Warm = dict[str, np.ndarray]


def resolved_params(tech: Technology, device: Mosfet, deltas: Mapping[str, DeviceDelta]):
    """Nominal parameters of a device with its variation delta applied."""
    params = tech.params_for(device.polarity)
    delta = deltas.get(device.name)
    if delta is None:
        return params
    return params.with_deltas(dvth=delta.dvth, dbeta_rel=delta.dbeta_rel)


def _geometry(
    block: AnalogBlock, placement: Placement, tech: Technology
) -> dict[str, float]:
    """Bounding-box area and estimated wirelength of a placement."""
    cell_area_um2 = tech.cell_area() * 1e12
    return {
        "area_um2": placement.area_cells() * cell_area_um2,
        "wirelength_um": total_wirelength(block.circuit, placement, tech) * 1e6,
    }


def _node_capacitances(
    circuit: Circuit, nets: tuple[str, ...], tech: Technology
) -> list[float]:
    """Total small-signal capacitance hanging on each of ``nets`` [F].

    MOSFET capacitances use the nominal parameters: variation deltas
    shift only ``vth0`` and ``kp``, which no capacitance reads.  Called
    on a block's own circuit this is the placement-independent part of
    each sum (see :func:`_with_parasitics`).
    """
    net_map = circuit.net_map()
    totals = []
    for net in nets:
        total = 0.0
        for device, port in net_map.get(net, ()):
            if isinstance(device, Mosfet):
                caps = device_caps(tech.params_for(device.polarity),
                                   device.width, device.length)
                if port == "d":
                    total += caps.cdb + caps.cgd
                elif port == "g":
                    total += caps.cgs + caps.cgd
                elif port == "s":
                    total += caps.csb + caps.cgs
            elif isinstance(device, Capacitor):
                total += device.value
        totals.append(total)
    return totals


def _with_parasitics(
    totals: Sequence[float], nets: tuple[str, ...], caps: Mapping[str, float]
) -> list[float]:
    """:func:`_node_capacitances` totals of ``nets`` plus each net's
    parasitic capacitor from ``caps``.

    A parasitic capacitor comes after every device of the block, so it
    is added last, exactly where a sum over the annotated circuit adds
    it.
    """
    return [total + caps[net] if net in caps else total
            for total, net in zip(totals, nets)]


def _device_gm(
    circuit: Circuit, name: str, op: DcResult, tech: Technology,
    deltas: Mapping[str, DeviceDelta],
) -> float:
    device = circuit.device(name)
    point = terminal_currents(
        resolved_params(tech, device, deltas), device.width, device.length,
        op.voltage(device.net("d")), op.voltage(device.net("g")),
        op.voltage(device.net("s")), op.voltage(device.net("b")),
    )
    return abs(point.gm)


# ---------------------------------------------------------------------- CM

class CmBench:
    """The current mirror's bench: the block itself, whose outputs are
    probed by fixed-voltage sources."""

    def __init__(self, block: AnalogBlock, tech: Technology):
        self.block = block
        self.tech = tech
        self.dc = compiled_system(block.circuit, tech)


def measure_cm(
    bench: CmBench,
    deltas: Mapping[str, DeviceDelta],
    placement: Placement,
    warm: Warm,
) -> Metrics:
    """Static mismatch of the mirror's delivered currents vs the reference.

    Each output is probed by a fixed-voltage source; static mismatch is
    the worst-case percentage deviation of |I_probe| from I_ref.
    """
    feats = dc_features(deltas)
    result, x0 = seed_dc(warm, "cm", feats)
    if result is None:
        if x0 is None:
            x0 = warm.get("cm")
        result = solve_dc(bench.dc.circuit, bench.tech, deltas=deltas, x0=x0,
                          system=bench.dc.rebind(deltas))
        store_dc(warm, "cm", feats, result)
    warm["cm"] = result.x
    return cm_metrics(bench.block, placement, bench.tech, result)


def cm_metrics(
    block: AnalogBlock,
    placement: Placement,
    tech: Technology,
    result: DcResult,
) -> Metrics:
    """The current-mirror metrics of one solved bench (shared with the
    batched suite)."""
    iref = block.params["iref"]
    probes = block.params["probe_sources"]
    currents = [abs(result.current(p)) for p in probes]
    values = {
        "mismatch_pct": 100.0 * max(abs(i - iref) for i in currents) / iref,
        "power_w": supply_power(block.params["vdd"], result.current("vvdd")),
    }
    for probe, current in zip(probes, currents):
        values[f"i_{probe}_ua"] = current * 1e6
    values.update(_geometry(block, placement, tech))
    return Metrics(kind="cm", primary="mismatch_pct", values=values)


# -------------------------------------------------------------------- COMP

OFFSET_PROBE_V = 1e-3


#: The comparator's three solves: op-cache stage and differential input.
COMP_STAGES = (
    ("balanced", 0.0),
    ("plus", +2 * OFFSET_PROBE_V),
    ("minus", -2 * OFFSET_PROBE_V),
)

#: The nets whose capacitance the delay and dynamic power read.
COMP_CAP_NETS = ("outp", "outn", "p1", "p2")


def _comp_inputs(vcm: float, vdiff: float) -> dict[str, float]:
    """The input-source overrides of a differential input ``vdiff``."""
    return {"vvip": vcm + vdiff / 2, "vvin": vcm - vdiff / 2}


def _clamps(block: AnalogBlock) -> list[VoltageSource]:
    """The sources holding both comparator outputs at ``clamp_v``."""
    clamp_v = block.params["clamp_v"]
    return [
        VoltageSource("vclampp", {"p": "outp", "n": "gnd"}, dc=clamp_v),
        VoltageSource("vclampn", {"p": "outn", "n": "gnd"}, dc=clamp_v),
    ]


class CompBench:
    """The comparator's clamped-latch bench, plus the block's own share
    of every :data:`COMP_CAP_NETS` capacitance."""

    def __init__(self, block: AnalogBlock, tech: Technology):
        self.block = block
        self.tech = tech
        self.dc = compiled_system(
            block.circuit.copy_with(extra=_clamps(block)), tech)
        self.node_caps = _node_capacitances(block.circuit, COMP_CAP_NETS, tech)


def measure_comp(
    bench: CompBench,
    deltas: Mapping[str, DeviceDelta],
    placement: Placement,
    warm: Warm,
) -> Metrics:
    """Clamped-latch static offset, regeneration delay estimate, power.

    Protocol (the static equivalent of a ramped-input transient bisection,
    which is what silicon characterisation does):

    1. hold the clock in the evaluation phase and clamp both outputs at
       ``clamp_v`` — the latch becomes a measurable differential pair;
    2. the clamp-current imbalance at zero differential input, divided by
       the measured differential transconductance, is the input-referred
       offset;
    3. regeneration delay = (C_out / gm_latch) * ln(swing / seed).

    The three solves (:data:`COMP_STAGES`) share one binding and differ
    only in the input sources, so the ones the op cache cannot serve
    run as one stacked Newton.  A stage whose library is still empty
    seeds from this evaluation's balanced solution, so then the
    balanced solve runs first, on its own.  The solver counters equal
    those of the three solves run one after another, also when one
    fails; only the op-cache lookups differ then, as every stage is
    looked up before any is solved.
    """
    block, tech = bench.block, bench.tech
    vcm = block.params["vcm"]
    feats = dc_features(deltas)
    seeds = [seed_dc(warm, f"comp/{key}", feats) for key, __ in COMP_STAGES]
    results: list[DcResult | None] = [exact for exact, __ in seeds]
    if results[0] is not None:
        warm["comp"] = results[0].x
    todo = [i for i, result in enumerate(results) if result is None]
    if todo:
        system = bench.dc.rebind(deltas)
        groups = [todo]
        if todo[0] == 0 and any(seeds[i][1] is None for i in todo[1:]):
            groups = [todo[:1], todo[1:]]

        def record(stages: list[int], solved: list[DcResult]) -> None:
            for i, result in zip(stages, solved):
                store_dc(warm, f"comp/{COMP_STAGES[i][0]}", feats, result)
                results[i] = result
                if i == 0:
                    warm["comp"] = result.x

        for group in groups:
            x0 = [seeds[i][1] if seeds[i][1] is not None else warm.get("comp")
                  for i in group]
            overrides = [_comp_inputs(vcm, COMP_STAGES[i][1]) for i in group]
            try:
                solved = solve_dc(
                    bench.dc.circuit, tech, deltas=deltas, x0=x0,
                    source_values=overrides, system=system)
            except ConvergenceError as err:
                record(group, err.solved)
                raise
            record(group, solved)
    op, plus, minus = results
    node_caps = _with_parasitics(
        bench.node_caps, COMP_CAP_NETS,
        parasitic_caps(block.circuit, placement, tech))
    return comp_metrics(block, placement, tech, deltas, op, plus, minus,
                        node_caps)


def comp_metrics(
    block: AnalogBlock,
    placement: Placement,
    tech: Technology,
    deltas: Mapping[str, DeviceDelta],
    op: DcResult,
    plus: DcResult,
    minus: DcResult,
    node_caps: Sequence[float],
) -> Metrics:
    """The comparator metrics of one clamped bench solved at the
    balanced (``op``) and the two probe inputs, with the
    :data:`COMP_CAP_NETS` capacitances ``node_caps`` (shared with the
    batched suite)."""
    params = block.params
    d0 = op.current("vclampp") - op.current("vclampn")
    dp = plus.current("vclampp") - plus.current("vclampn")
    dm = minus.current("vclampp") - minus.current("vclampn")
    gm_diff = (dp - dm) / (4 * OFFSET_PROBE_V)
    if abs(gm_diff) < 1e-12:
        offset_v = float("inf")
    else:
        offset_v = -d0 / gm_diff

    circuit = block.circuit
    gm_latch = 0.5 * (
        _device_gm(circuit, "m3", op, tech, deltas)
        + _device_gm(circuit, "m4", op, tech, deltas)
    ) + 0.5 * (
        _device_gm(circuit, "m5", op, tech, deltas)
        + _device_gm(circuit, "m6", op, tech, deltas)
    )
    c_outp, c_outn, c_p1, c_p2 = node_caps
    c_out = 0.5 * (c_outp + c_outn)
    tau = c_out / max(gm_latch, 1e-9)
    delay_s = tau * math.log(params["regen_swing"] / params["seed_imbalance"])

    c_internal = c_p1 + c_p2
    c_switched = c_outp + c_outn + c_internal
    vdd = params["vdd"]
    power_dynamic = params["fclk"] * c_switched * vdd * vdd
    power_static = supply_power(vdd, op.current("vvdd"))

    values = {
        "offset_mv": abs(offset_v) * 1e3,
        "offset_signed_mv": offset_v * 1e3,
        "delay_s": delay_s,
        "power_w": power_dynamic + power_static,
        "gm_latch_s": gm_latch,
    }
    values.update(_geometry(block, placement, tech))
    return Metrics(kind="comp", primary="offset_mv", values=values)


# --------------------------------------------------------------------- OTA

AC_FREQS = logspace_frequencies(1e3, 1e10, points_per_decade=8)

# Warm-dict key: how many leading AC_FREQS points the last sweep needed.
_AC_SPAN = "ota/ac_span"


def _unity_crossings(mags: np.ndarray) -> np.ndarray:
    """Per row of ``mags``, the index ``i`` of its first downward unity
    crossing (``mags[i] >= 1 > mags[i + 1]``), or -1 for a row without
    one."""
    down = (mags[:, :-1] >= 1.0) & (1.0 > mags[:, 1:])
    if not down.shape[1]:
        return np.full(len(mags), -1)
    return np.where(down.any(axis=1), down.argmax(axis=1), -1)


def _points_read(h: np.ndarray) -> list[int | None]:
    """How many leading points of each row of the transfers ``h`` the
    OTA metrics read.

    Gain reads the first point.  GBW and phase margin read every point
    up to the first downward unity crossing (the phase is unwrapped from
    low frequency) and interpolate inside that crossing's interval; one
    point past it is kept too.  ``None`` for a row with no such crossing
    followed by another point, so the rest of the grid is needed.
    """
    n = h.shape[1]
    return [int(i) + 3 if 0 <= i < n - 2 else None
            for i in _unity_crossings(np.abs(h))]


def open_loop_transfers(
    solve: Callable[[int, int], np.ndarray], warm: Warm
) -> np.ndarray:
    """Open-loop transfers, one row per placement, on a leading part of
    :data:`AC_FREQS` holding every point the OTA metrics read.

    ``solve(lo, hi)`` returns the ``(rows, hi - lo)`` transfers on
    ``AC_FREQS[lo:hi]``.  The sweep first solves as many points as the
    last sweep needed (kept in ``warm``) and solves the rest of the grid
    only when some row needs it.  Each grid point is its own linear
    solve and the metrics read only a prefix, so they equal the
    full-grid metrics bit for bit.
    """
    n = len(AC_FREQS)
    span = warm.get(_AC_SPAN, n)
    h = solve(0, span)
    needed = _points_read(h)
    if None in needed and span < n:
        h = np.concatenate((h, solve(span, n)), axis=1)
        needed = _points_read(h)
    warm[_AC_SPAN] = max(n if k is None else k for k in needed)
    return h


def open_loop_metrics(h: np.ndarray) -> tuple[float, float, float]:
    """``(gain_db, gbw_hz, pm_deg)`` of one :func:`open_loop_transfers`
    row (0.0 for a gain, GBW or margin that does not exist)."""
    return open_loop_metrics_rows(h[None])[0]


def open_loop_metrics_rows(h: np.ndarray) -> list[tuple[float, float, float]]:
    """:func:`open_loop_metrics` of every row of ``h``.

    The magnitudes, crossings and unwrapped phases of all rows come from
    one array pass each; every element equals its one-row value, so each
    row's metrics do too.
    """
    freqs = AC_FREQS[: h.shape[1]]
    log_freqs = np.log10(freqs)
    mags = np.abs(h)
    phases = np.unwrap(np.angle(h))
    out = []
    for row_mags, row_phases, i in zip(mags, phases, _unity_crossings(mags)):
        gain = float(row_mags[0])
        gbw = pm = 0.0
        if i >= 0:
            gbw = log_crossing_at(freqs, row_mags, int(i) + 1, 1.0)
            pm = phase_margin_from(log_freqs, row_phases, gbw)
        out.append((float(db(gain)) if gain > 0 else 0.0, gbw, pm))
    return out


def _feedback() -> Vcvs:
    """The unity-gain VCVS that drives the inverting input from the
    output (a behavioural feedback wire)."""
    return Vcvs("vvin", {"p": "vin", "n": "gnd", "cp": "outp", "cn": "gnd"},
                gain=1.0)


class OtaBench:
    """The OTA's unity-feedback DC bench and its open-loop AC bench.

    The AC bench carries one parasitic capacitor per signal net (as
    :func:`~repro.route.parasitics.annotate_parasitics` adds them,
    after every device of the block); each placement binds their values
    after the block's own capacitors.
    """

    def __init__(self, block: AnalogBlock, tech: Technology):
        self.block = block
        self.tech = tech
        circuit = block.circuit
        self.closed = compiled_system(
            circuit.copy_with(replacements={"vvin": _feedback()}), tech)
        drive = {
            "vvip": dataclasses.replace(circuit.device("vvip"), ac=+0.5),
            "vvin": dataclasses.replace(circuit.device("vvin"), ac=-0.5),
        }
        cpar = parasitic_capacitors(
            dict.fromkeys(signal_nets(circuit), C_FLOOR))
        self.ac = compiled_system(
            circuit.copy_with(replacements=drive, extra=cpar), tech)
        self.block_caps = [
            d.value for d in circuit if isinstance(d, Capacitor)]


def measure_ota(
    bench: OtaBench,
    deltas: Mapping[str, DeviceDelta],
    placement: Placement,
    warm: Warm,
) -> Metrics:
    """Unity-feedback offset plus open-loop AC at the closed-loop bias.

    DC: the inverting input is driven by a unity-gain VCVS from the output
    (a behavioural feedback wire), so ``v(outp) - vcm`` *is* the
    input-referred offset.  AC: the original open-loop netlist is
    linearized at that operating point and driven differentially.
    """
    block, tech = bench.block, bench.tech
    feats = dc_features(deltas)
    op, x0 = seed_dc(warm, "ota", feats)
    if op is None:
        if x0 is None:
            x0 = warm.get("ota")
        op = solve_dc(bench.closed.circuit, tech, deltas=deltas, x0=x0,
                      system=bench.closed.rebind(deltas))
        store_dc(warm, "ota", feats, op)
    warm["ota"] = op.x

    caps = parasitic_caps(block.circuit, placement, tech)
    system = bench.ac.rebind(deltas, bench.block_caps + list(caps.values()))

    def solve(lo: int, hi: int) -> np.ndarray:
        ac = solve_ac(
            bench.ac.circuit, tech, op.voltages, AC_FREQS[lo:hi],
            deltas=deltas, system=system,
            nets=("outp",),  # the suite only reads the output transfer
        )
        return ac.transfer("outp")[None]

    open_loop = open_loop_metrics(open_loop_transfers(solve, warm)[0])
    return ota_metrics(block, placement, tech, op, open_loop)


def ota_metrics(
    block: AnalogBlock,
    placement: Placement,
    tech: Technology,
    op: DcResult,
    open_loop: tuple[float, float, float],
) -> Metrics:
    """The OTA metrics of one closed-loop operating point and its
    :func:`open_loop_metrics` (shared with the batched suite)."""
    params = block.params
    offset_v = op.voltage("outp") - params["vcm"]
    gain_db, gbw, pm = open_loop
    values = {
        "offset_mv": abs(offset_v) * 1e3,
        "offset_signed_mv": offset_v * 1e3,
        "gain_db": gain_db,
        "gbw_hz": gbw,
        "pm_deg": pm,
        "power_w": supply_power(params["vdd"], op.current("vvdd")),
    }
    values.update(_geometry(block, placement, tech))
    return Metrics(kind="ota", primary="offset_mv", values=values)


#: The testbenches of each block kind, built once per evaluator.
BENCHES = {
    "cm": CmBench,
    "comp": CompBench,
    "ota": OtaBench,
}

SUITES = {
    "cm": measure_cm,
    "comp": measure_comp,
    "ota": measure_ota,
}
