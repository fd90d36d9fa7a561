"""Placement-batched measurement suites.

One-to-one batched counterparts of the scalar protocols in
:mod:`repro.eval.suites`: each takes the block's testbenches (the
evaluator's :data:`~repro.eval.suites.BENCHES`, built once), K
placements and their variation deltas, and produces K metric sets,
running every DC and AC analysis of the protocol as one
placement-batched solve (:mod:`repro.sim.batch`).  Each bench is
rebound with one row per placement (:meth:`~repro.sim.compiled
.CompiledSystem.rebind` with the list of delta sets, and on the OTA's
AC bench each placement's parasitic capacitor values), exactly as the
scalar suites rebind it per placement, and each solved row is turned into
metrics by the scalar suite's own post-solve function
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

from typing import Mapping, Sequence

import numpy as np

from repro.eval.metrics import Metrics
from repro.eval.suites import (
    AC_FREQS,
    COMP_CAP_NETS,
    OFFSET_PROBE_V,
    CmBench,
    CompBench,
    OtaBench,
    Warm,
    _comp_inputs,
    _with_parasitics,
    cm_metrics,
    comp_metrics,
    open_loop_metrics_rows,
    open_loop_transfers,
    ota_metrics,
)
from repro.eval.warm import dc_features, seed_dc_rows, store_dc
from repro.layout.placement import Placement
from repro.route.parasitics import parasitic_caps
from repro.sim.batch import solve_ac_many, solve_dc_many
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
    bench: CmBench,
    deltas_seq: DeltasSeq,
    placements: Sequence[Placement],
    warm: Warm,
) -> list[Metrics]:
    """Batched :func:`repro.eval.suites.measure_cm`."""
    tech = bench.tech
    system = bench.dc.rebind(list(deltas_seq))
    feats_rows = [dc_features(d) for d in deltas_seq]
    x0 = _batch_x0(seed_dc_rows(warm, "cm", feats_rows), warm.get("cm"))
    results = solve_dc_many(system, x0=x0)
    for feats, result in zip(feats_rows, results):
        store_dc(warm, "cm", feats, result)
    warm["cm"] = results[-1].x

    return [cm_metrics(bench.block, placement, tech, result)
            for placement, result in zip(placements, results)]


# -------------------------------------------------------------------- COMP


def measure_comp_many(
    bench: CompBench,
    deltas_seq: DeltasSeq,
    placements: Sequence[Placement],
    warm: Warm,
) -> list[Metrics]:
    """Batched :func:`repro.eval.suites.measure_comp`."""
    block, tech = bench.block, bench.tech
    vcm = block.params["vcm"]
    system = bench.dc.rebind(list(deltas_seq))
    feats_rows = [dc_features(d) for d in deltas_seq]

    def imbalances(vdiff: float, key: str):
        stage = f"comp/{key}"
        x0 = _batch_x0(
            seed_dc_rows(warm, stage, feats_rows), warm.get("comp"))
        results = solve_dc_many(
            system, x0=x0, source_values=_comp_inputs(vcm, vdiff))
        for feats, result in zip(feats_rows, results):
            store_dc(warm, stage, feats, result)
        return results

    ops = imbalances(0.0, "balanced")
    warm["comp"] = ops[-1].x
    plus = imbalances(+2 * OFFSET_PROBE_V, "plus")
    minus = imbalances(-2 * OFFSET_PROBE_V, "minus")

    return [
        comp_metrics(
            block, placement, tech, deltas, op, rp, rm,
            _with_parasitics(bench.node_caps, COMP_CAP_NETS, parasitic_caps(
                block.circuit, placement, tech)))
        for placement, deltas, op, rp, rm in zip(
            placements, deltas_seq, ops, plus, minus)
    ]


# --------------------------------------------------------------------- OTA


def measure_ota_many(
    bench: OtaBench,
    deltas_seq: DeltasSeq,
    placements: Sequence[Placement],
    warm: Warm,
) -> list[Metrics]:
    """Batched :func:`repro.eval.suites.measure_ota`."""
    block, tech = bench.block, bench.tech
    deltas_seq = list(deltas_seq)
    feats_rows = [dc_features(d) for d in deltas_seq]
    x0 = _batch_x0(seed_dc_rows(warm, "ota", feats_rows), warm.get("ota"))
    ops = solve_dc_many(bench.closed.rebind(deltas_seq), x0=x0)
    for feats, op in zip(feats_rows, ops):
        store_dc(warm, "ota", feats, op)
    warm["ota"] = ops[-1].x

    ac_sys = bench.ac.rebind(deltas_seq, [
        bench.block_caps + list(parasitic_caps(
            block.circuit, placement, tech).values())
        for placement in placements])
    biases = [op.voltages for op in ops]

    def solve(lo: int, hi: int) -> np.ndarray:
        acs = solve_ac_many(
            ac_sys, biases, AC_FREQS[lo:hi], nets=("outp",))
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
