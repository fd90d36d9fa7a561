"""Circuit-specific measurement protocols (the "testbench" layer).

Each suite takes a parasitic-annotated circuit plus variation-resolved
device deltas and produces the paper's metrics for that circuit class:

* :func:`measure_cm` — static current mismatch of the mirror outputs;
* :func:`measure_comp` — clamped-latch input-referred offset, regeneration
  delay, power;
* :func:`measure_ota` — unity-feedback offset, open-loop AC (gain, GBW,
  phase margin), power.

All suites also report bounding-box area and estimated wirelength.  The
protocols mirror standard silicon characterisation practice; deviations
forced by the simulator substrate are noted inline and in DESIGN.md.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from repro.eval.metrics import Metrics
from repro.eval.warm import dc_features, seed_dc, store_dc
from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.netlist.devices import Capacitor, Mosfet, Vcvs, VoltageSource
from repro.netlist.library import AnalogBlock
from repro.route.estimator import total_wirelength
from repro.sim.ac import logspace_frequencies, solve_ac
from repro.sim.compiled import compiled_system
from repro.sim.dc import DcResult, solve_dc
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
    shift only ``vth0`` and ``kp``, which no capacitance reads.
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

def measure_cm(
    block: AnalogBlock,
    annotated: Circuit,
    deltas: Mapping[str, DeviceDelta],
    tech: Technology,
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
        result = solve_dc(annotated, tech, deltas=deltas, x0=x0)
        store_dc(warm, "cm", feats, result)
    warm["cm"] = result.x
    return cm_metrics(block, placement, tech, result)


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


def measure_comp(
    block: AnalogBlock,
    annotated: Circuit,
    deltas: Mapping[str, DeviceDelta],
    tech: Technology,
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
    """
    params = block.params
    vcm = params["vcm"]
    clamp = [
        VoltageSource("vclampp", {"p": "outp", "n": "gnd"}, dc=params["clamp_v"]),
        VoltageSource("vclampn", {"p": "outn", "n": "gnd"}, dc=params["clamp_v"]),
    ]
    bench = annotated.copy_with(extra=clamp)

    feats = dc_features(deltas)
    # The three solves differ only in source overrides, so one binding
    # (made on the first op-cache miss) serves them all.
    system = None

    def imbalance(vdiff: float, key: str) -> DcResult:
        nonlocal system
        stage = f"comp/{key}"
        result, x0 = seed_dc(warm, stage, feats)
        if result is None:
            if x0 is None:
                x0 = warm.get("comp")
            if system is None:
                system = compiled_system(bench, tech, deltas)
            result = solve_dc(
                bench, tech, deltas=deltas, x0=x0,
                source_values={
                    "vvip": vcm + vdiff / 2, "vvin": vcm - vdiff / 2},
                system=system,
            )
            store_dc(warm, stage, feats, result)
        warm.setdefault("comp", result.x)
        if key == "balanced":
            warm["comp"] = result.x
        return result

    op = imbalance(0.0, "balanced")
    plus = imbalance(+2 * OFFSET_PROBE_V, "plus")
    minus = imbalance(-2 * OFFSET_PROBE_V, "minus")
    return comp_metrics(block, bench, placement, tech, deltas,
                        op, plus, minus)


def comp_metrics(
    block: AnalogBlock,
    bench: Circuit,
    placement: Placement,
    tech: Technology,
    deltas: Mapping[str, DeviceDelta],
    op: DcResult,
    plus: DcResult,
    minus: DcResult,
) -> Metrics:
    """The comparator metrics of one clamped bench solved at the
    balanced (``op``) and the two probe inputs (shared with the batched
    suite)."""
    params = block.params
    d0 = op.current("vclampp") - op.current("vclampn")
    dp = plus.current("vclampp") - plus.current("vclampn")
    dm = minus.current("vclampp") - minus.current("vclampn")
    gm_diff = (dp - dm) / (4 * OFFSET_PROBE_V)
    if abs(gm_diff) < 1e-12:
        offset_v = float("inf")
    else:
        offset_v = -d0 / gm_diff

    gm_latch = 0.5 * (
        _device_gm(bench, "m3", op, tech, deltas)
        + _device_gm(bench, "m4", op, tech, deltas)
    ) + 0.5 * (
        _device_gm(bench, "m5", op, tech, deltas)
        + _device_gm(bench, "m6", op, tech, deltas)
    )
    c_outp, c_outn, c_p1, c_p2 = _node_capacitances(
        bench, ("outp", "outn", "p1", "p2"), tech)
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


def measure_ota(
    block: AnalogBlock,
    annotated: Circuit,
    deltas: Mapping[str, DeviceDelta],
    tech: Technology,
    placement: Placement,
    warm: Warm,
) -> Metrics:
    """Unity-feedback offset plus open-loop AC at the closed-loop bias.

    DC: the inverting input is driven by a unity-gain VCVS from the output
    (a behavioural feedback wire), so ``v(outp) - vcm`` *is* the
    input-referred offset.  AC: the original open-loop netlist is
    linearized at that operating point and driven differentially.
    """
    feats = dc_features(deltas)
    op, x0 = seed_dc(warm, "ota", feats)
    if op is None:
        # Built only on an op-cache miss — an exact hit never touches
        # the closed-loop bench.
        feedback = Vcvs(
            "vvin", {"p": "vin", "n": "gnd", "cp": "outp", "cn": "gnd"},
            gain=1.0)
        closed = annotated.copy_with(replacements={"vvin": feedback})
        if x0 is None:
            x0 = warm.get("ota")
        op = solve_dc(closed, tech, deltas=deltas, x0=x0)
        store_dc(warm, "ota", feats, op)
    warm["ota"] = op.x

    vip = annotated.device("vvip")
    vin = annotated.device("vvin")
    import dataclasses
    ac_bench = annotated.copy_with(replacements={
        "vvip": dataclasses.replace(vip, ac=+0.5),
        "vvin": dataclasses.replace(vin, ac=-0.5),
    })
    system = compiled_system(ac_bench, tech, deltas)

    def solve(lo: int, hi: int) -> np.ndarray:
        ac = solve_ac(
            ac_bench, tech, op.voltages, AC_FREQS[lo:hi], deltas=deltas,
            system=system,
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


SUITES = {
    "cm": measure_cm,
    "comp": measure_comp,
    "ota": measure_ota,
}
