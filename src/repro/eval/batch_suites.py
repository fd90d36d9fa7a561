"""Placement-batched measurement suites.

One-to-one batched counterparts of the scalar protocols in
:mod:`repro.eval.suites`: each takes K parasitic-annotated circuit
variants plus their variation deltas and produces K metric sets, running
every DC and AC analysis of the protocol as one placement-batched solve
(:mod:`repro.sim.batch`).  The benches — probe sources, clamps,
feedback trick — are built as in the scalar suites, and each solved row
is turned into metrics by the scalar suite's own post-solve function
(:func:`~repro.eval.suites.cm_metrics`,
:func:`~repro.eval.suites.comp_metrics`,
:func:`~repro.eval.suites.ota_metrics`); only the solver calls are
batched, so per-placement metrics match the scalar suites to solver
tolerance.  Unlike the scalar suites, a batch re-solves rows whose
operating point is an exact op-cache hit (the hit only seeds Newton).

Warm-start semantics: the scalar suites thread one warm vector through
consecutive evaluations; the batched suites seed every placement of a
batch from that same vector and store the last placement's solution
back, mirroring what a sequential pass over the batch would leave
behind.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from repro.eval.metrics import Metrics
from repro.eval.suites import (
    AC_FREQS,
    OFFSET_PROBE_V,
    Warm,
    cm_metrics,
    comp_metrics,
    open_loop_metrics_rows,
    open_loop_transfers,
    ota_metrics,
)
from repro.eval.warm import dc_features, seed_dc_rows, store_dc
from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.netlist.devices import Vcvs, VoltageSource
from repro.netlist.library import AnalogBlock
from repro.sim.batch import batched_system, solve_ac_many, solve_dc_many
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
    bsys = batched_system(
        annotated, tech, deltas_seq, check_signatures=False)
    feats_rows = [dc_features(d) for d in deltas_seq]
    x0 = _batch_x0(seed_dc_rows(warm, "cm", feats_rows), warm.get("cm"))
    results = solve_dc_many(
        annotated, tech, deltas_seq, x0=x0, system=bsys)
    for feats, result in zip(feats_rows, results):
        store_dc(warm, "cm", feats, result)
    warm["cm"] = results[-1].x

    return [cm_metrics(block, placement, tech, result)
            for placement, result in zip(placements, results)]


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

    return [
        comp_metrics(block, bench, placement, tech, deltas, op, rp, rm)
        for bench, placement, deltas, op, rp, rm in zip(
            benches, placements, deltas_seq, ops, plus, minus)
    ]


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

    return [
        ota_metrics(block, placement, tech, op, open_loop)
        for placement, op, open_loop in zip(
            placements, ops, open_loop_metrics_rows(transfers))
    ]


BATCH_SUITES = {
    "cm": measure_cm_many,
    "comp": measure_comp_many,
    "ota": measure_ota_many,
}
