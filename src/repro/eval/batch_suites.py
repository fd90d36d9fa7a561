"""Placement-batched measurement suites.

One-to-one batched counterparts of the scalar protocols in
:mod:`repro.eval.suites`: each takes K parasitic-annotated circuit
variants plus their variation deltas and produces K metric sets, running
every DC and AC analysis of the protocol as one placement-batched solve
(:mod:`repro.sim.batch`).  The measurement *protocol* — probe sources,
clamps, feedback trick, derived quantities — is identical line for line;
only the solver calls are batched, so per-placement metrics match the
scalar suites to solver tolerance.

Warm-start semantics: the scalar suites thread one warm vector through
consecutive evaluations; the batched suites seed every placement of a
batch from that same vector and store the last placement's solution
back, mirroring what a sequential pass over the batch would leave
behind.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.eval.metrics import Metrics
from repro.eval.suites import (
    AC_FREQS,
    OFFSET_PROBE_V,
    Warm,
    _device_gm,
    _geometry_values,
    _node_capacitances,
    open_loop_metrics_rows,
    open_loop_transfers,
)
from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.netlist.devices import Vcvs, VoltageSource
from repro.netlist.library import AnalogBlock
from repro.sim.batch import solve_ac_many, solve_dc_many
from repro.sim.compiled import batched_system
from repro.sim.measures import supply_power
from repro.eval.warm import dc_features, geometry_for, seed_dc_rows, store_dc
from repro.tech import Technology
from repro.variation import DeviceDelta

DeltasSeq = Sequence[Mapping[str, DeviceDelta]]


def _batch_x0(seeds, shared):
    """Per-row Newton seeds for one batched DC solve.

    ``seeds`` are the op-cache lookups (exact result or nearest-neighbour
    vector per row); rows the cache cannot seed fall back to the legacy
    shared last-solution vector, and a fully cold batch degenerates to
    exactly the pre-cache behavior (one shared vector or None).
    """
    rows = [exact.x if exact is not None else x0 for exact, x0 in seeds]
    if all(row is None for row in rows):
        return shared
    if shared is None:
        proto = next(row for row in rows if row is not None)
        shared = np.zeros_like(proto)
    return [shared if row is None else row for row in rows]


# ---------------------------------------------------------------------- CM


def measure_cm_many(
    block: AnalogBlock,
    annotated: Sequence[Circuit],
    deltas_seq: DeltasSeq,
    tech: Technology,
    placements: Sequence[Placement],
    warm: Warm,
) -> list[Metrics]:
    """Batched :func:`repro.eval.suites.measure_cm`."""
    iref = block.params["iref"]
    probes = block.params["probe_sources"]
    bsys = batched_system(
        annotated, tech, deltas_seq, check_signatures=False)
    feats_rows = [dc_features(d) for d in deltas_seq]
    x0 = _batch_x0(seed_dc_rows(warm, "cm", feats_rows), warm.get("cm"))
    results = solve_dc_many(
        annotated, tech, deltas_seq, x0=x0, system=bsys)
    for feats, result in zip(feats_rows, results):
        store_dc(warm, "cm", feats, result)
    warm["cm"] = results[-1].x

    out = []
    for circuit, placement, result in zip(annotated, placements, results):
        currents = [abs(result.current(p)) for p in probes]
        values = {
            "mismatch_pct": 100.0 * max(abs(i - iref) for i in currents) / iref,
            "power_w": supply_power(
                block.params["vdd"], result.current("vvdd")),
        }
        for probe, current in zip(probes, currents):
            values[f"i_{probe}_ua"] = current * 1e6
        values.update(geometry_for(
        warm, placement,
        lambda: _geometry_values(block, circuit, placement, tech)))
        out.append(Metrics(kind="cm", primary="mismatch_pct", values=values))
    return out


# -------------------------------------------------------------------- COMP


def measure_comp_many(
    block: AnalogBlock,
    annotated: Sequence[Circuit],
    deltas_seq: DeltasSeq,
    tech: Technology,
    placements: Sequence[Placement],
    warm: Warm,
) -> list[Metrics]:
    """Batched :func:`repro.eval.suites.measure_comp`."""
    params = block.params
    vcm = params["vcm"]
    clamp = [
        VoltageSource("vclampp", {"p": "outp", "n": "gnd"}, dc=params["clamp_v"]),
        VoltageSource("vclampn", {"p": "outn", "n": "gnd"}, dc=params["clamp_v"]),
    ]
    benches = [circuit.copy_with(extra=clamp) for circuit in annotated]
    bsys = batched_system(
        benches, tech, deltas_seq, check_signatures=False)

    feats_rows = [dc_features(d) for d in deltas_seq]

    def imbalances(vdiff: float, key: str):
        stage = f"comp/{key}"
        x0 = _batch_x0(
            seed_dc_rows(warm, stage, feats_rows), warm.get("comp"))
        results = solve_dc_many(
            benches, tech, deltas_seq, x0=x0,
            source_values={"vvip": vcm + vdiff / 2, "vvin": vcm - vdiff / 2},
            system=bsys,
        )
        for feats, result in zip(feats_rows, results):
            store_dc(warm, stage, feats, result)
        return results

    ops = imbalances(0.0, "balanced")
    warm["comp"] = ops[-1].x
    plus = imbalances(+2 * OFFSET_PROBE_V, "plus")
    minus = imbalances(-2 * OFFSET_PROBE_V, "minus")

    out = []
    for bench, circuit, placement, op, rp, rm, deltas in zip(
        benches, annotated, placements, ops, plus, minus, deltas_seq
    ):
        d0 = op.current("vclampp") - op.current("vclampn")
        dp = rp.current("vclampp") - rp.current("vclampn")
        dm = rm.current("vclampp") - rm.current("vclampn")
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
        delay_s = tau * math.log(
            params["regen_swing"] / params["seed_imbalance"])

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
        values.update(geometry_for(
        warm, placement,
        lambda: _geometry_values(block, circuit, placement, tech)))
        out.append(Metrics(kind="comp", primary="offset_mv", values=values))
    return out


# --------------------------------------------------------------------- OTA


def measure_ota_many(
    block: AnalogBlock,
    annotated: Sequence[Circuit],
    deltas_seq: DeltasSeq,
    tech: Technology,
    placements: Sequence[Placement],
    warm: Warm,
) -> list[Metrics]:
    """Batched :func:`repro.eval.suites.measure_ota`."""
    import dataclasses

    params = block.params
    vcm = params["vcm"]

    feedback = Vcvs("vvin", {"p": "vin", "n": "gnd", "cp": "outp", "cn": "gnd"},
                    gain=1.0)
    closed = [c.copy_with(replacements={"vvin": feedback}) for c in annotated]
    closed_sys = batched_system(
        closed, tech, deltas_seq, check_signatures=False)
    feats_rows = [dc_features(d) for d in deltas_seq]
    x0 = _batch_x0(seed_dc_rows(warm, "ota", feats_rows), warm.get("ota"))
    ops = solve_dc_many(
        closed, tech, deltas_seq, x0=x0, system=closed_sys)
    for feats, op in zip(feats_rows, ops):
        store_dc(warm, "ota", feats, op)
    warm["ota"] = ops[-1].x

    ac_benches = []
    for circuit in annotated:
        vip = circuit.device("vvip")
        vin = circuit.device("vvin")
        ac_benches.append(circuit.copy_with(replacements={
            "vvip": dataclasses.replace(vip, ac=+0.5),
            "vvin": dataclasses.replace(vin, ac=-0.5),
        }))
    ac_sys = batched_system(
        ac_benches, tech, deltas_seq, check_signatures=False)
    biases = [op.voltages for op in ops]

    def solve(lo: int, hi: int) -> np.ndarray:
        acs = solve_ac_many(
            ac_benches, tech, biases, AC_FREQS[lo:hi], deltas_seq,
            system=ac_sys, nets=("outp",))
        return np.array([ac.transfer("outp") for ac in acs])

    transfers = open_loop_transfers(solve, warm)

    out = []
    for circuit, placement, op, (gain_db, gbw, pm) in zip(
        annotated, placements, ops, open_loop_metrics_rows(transfers)
    ):
        offset_v = op.voltage("outp") - vcm
        values = {
            "offset_mv": abs(offset_v) * 1e3,
            "offset_signed_mv": offset_v * 1e3,
            "gain_db": gain_db,
            "gbw_hz": gbw,
            "pm_deg": pm,
            "power_w": supply_power(params["vdd"], op.current("vvdd")),
        }
        values.update(geometry_for(
        warm, placement,
        lambda: _geometry_values(block, circuit, placement, tech)))
        out.append(Metrics(kind="ota", primary="offset_mv", values=values))
    return out


BATCH_SUITES = {
    "cm": measure_cm_many,
    "comp": measure_comp_many,
    "ota": measure_ota_many,
}
