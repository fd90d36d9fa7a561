"""BENCH_6 / solver — fast-path per-evaluation latency on the two-stage OTA.

Prices one ``measure_ota`` call (testbench rebind + DC operating point +
stacked AC + metric extraction; the benches are built once, as an
evaluator builds them) on a fixed set of 16
distinct two-stage-OTA candidates, each with its own Monte-Carlo
variation draw, in two solver configurations:

* **baseline** — a plain warm dict: the suites then seed every DC
  solve from the last solution only, the pre-op-cache code path (the
  scalar DC driver always runs plain damped Newton);
* **fast** — a :class:`~repro.eval.warm.WarmStore`: cross-placement
  operating-point reuse (the DC system is independent of the
  capacitor-only parasitics, so matching deltas hit bit-exactly) and
  nearest-neighbour Newton seeding.

Rounds of both configurations are interleaved and best-of timed so
machine noise hits both equally.  The fast path's job is to skip the
DC solve of an operating point it has seen; the AC analysis it cannot
skip.  So the acceptance target is an absolute per-evaluation saving:
in the steady state (every pass repeats the same 16 variation draws,
so exact op-cache hits serve every DC solve) the fast path saves **at
least three quarters of the baseline's DC-solve time** per evaluation.
A ratio of whole evaluations would move with every change to the AC or
Newton cost that the op cache has nothing to do with; the ratio is
recorded (``fast_vs_baseline``) but not asserted.  A
cold-library pass and steady-state solver statistics (Newton
iterations, warm-hit rate) are recorded in ``extra_info`` alongside
batch-8 numbers from the placement-batched path (both with its
Jacobian reuse, which is always on; they differ only in the warm store).

Set ``SOLVER_SPEED_SMOKE=1`` (CI does — shared runners are too noisy
for hard wall-clock targets) to run in shape-only mode: fewer rounds,
metric agreement asserted, the saving only recorded.
"""

import os
import time

import numpy as np
import pytest

from repro.eval import suites
from repro.eval.batch_suites import measure_ota_many
from repro.eval.suites import OtaBench, measure_ota
from repro.eval.warm import WarmStore
from repro.layout.generators import random_walk_placements
from repro.netlist.library import two_stage_ota
from repro.sim import reset_solver_stats, solver_stats
from repro.tech import generic_tech_40
from repro.variation import DeviceDelta

SMOKE = os.environ.get("SOLVER_SPEED_SMOKE", "") not in ("", "0")
ROUNDS = 2 if SMOKE else 9
N_CANDIDATES = 16
# Share of the baseline's per-evaluation DC-solve time the fast path must
# save in the steady state.
MIN_DC_SAVING = 0.75


def _workload():
    """16 distinct candidates, each with its own variation draw."""
    tech = generic_tech_40()
    block = two_stage_ota()
    placements = random_walk_placements(block, N_CANDIDATES, seed=3)
    rng = np.random.default_rng(11)
    deltas_seq = [
        {m.name: DeviceDelta(dvth=float(rng.normal(0.0, 5e-3)),
                             dbeta_rel=float(rng.normal(0.0, 0.02)))
         for m in block.circuit.mosfets()}
        for __ in placements
    ]
    return block, tech, placements, deltas_seq


@pytest.mark.benchmark(group="solver")
def test_solver_fastpath_speedup(benchmark, monkeypatch):
    block, tech, placements, deltas_seq = _workload()
    bench = OtaBench(block, tech)

    def run_pass(warm):
        return [
            measure_ota(bench, d, p, warm)
            for p, d in zip(placements, deltas_seq)
        ]

    # Warm both configurations: topology compile, legacy warm vectors,
    # and (fast only) the operating-point library.
    base_warm, fast_warm = {}, WarmStore()
    base_metrics = run_pass(base_warm)
    cold_start = time.perf_counter()
    fast_metrics = run_pass(WarmStore())  # cold library, recorded below
    cold_s = time.perf_counter() - cold_start
    run_pass(fast_warm)

    # Time every DC solve the suite makes (the baseline solves one per
    # evaluation; the fast path's exact hits solve none).
    dc_clock = [0.0]

    def timed_solve_dc(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real_solve_dc(*args, **kwargs)
        finally:
            dc_clock[0] += time.perf_counter() - start

    real_solve_dc = suites.solve_dc
    monkeypatch.setattr(suites, "solve_dc", timed_solve_dc)

    base_times, fast_times, dc_times = [], [], []

    def interleaved_rounds():
        for __ in range(ROUNDS):
            dc_clock[0] = 0.0
            start = time.perf_counter()
            run_pass(base_warm)
            base_times.append(time.perf_counter() - start)
            dc_times.append(dc_clock[0])
            start = time.perf_counter()
            run_pass(fast_warm)
            fast_times.append(time.perf_counter() - start)

    reset_solver_stats()
    benchmark.pedantic(interleaved_rounds, rounds=1, iterations=1)
    stats = solver_stats().as_dict()  # snapshot before the batch passes

    base_ms = min(base_times) / N_CANDIDATES * 1e3
    fast_ms = min(fast_times) / N_CANDIDATES * 1e3
    dc_ms = min(dc_times) / N_CANDIDATES * 1e3
    saved_ms = base_ms - fast_ms
    speedup = base_ms / fast_ms

    # Batch-8 through the placement-batched path, both configurations
    # (recorded, not asserted — the batched win is priced by
    # benchmarks/test_batched_eval.py).
    def run_batched(warm, size=8):
        for i in range(0, N_CANDIDATES, size):
            s = slice(i, i + size)
            measure_ota_many(bench, deltas_seq[s], placements[s], warm)

    batch_times = {}
    for label, factory in (
        ("batch8_baseline_ms", dict),
        ("batch8_fast_ms", WarmStore),
    ):
        warm = factory()
        run_batched(warm)  # warm pass
        best = min(
            _timed(run_batched, warm) for __ in range(max(2, ROUNDS // 2))
        )
        batch_times[label] = best / N_CANDIDATES * 1e3

    benchmark.extra_info.update({
        "block": "ota2s",
        "candidates": N_CANDIDATES,
        "rounds": ROUNDS,
        "smoke": SMOKE,
        "baseline_ms_per_eval": round(base_ms, 3),
        "fast_ms_per_eval": round(fast_ms, 3),
        "fast_cold_ms_per_eval": round(cold_s / N_CANDIDATES * 1e3, 3),
        "fast_vs_baseline": round(speedup, 2),
        "baseline_dc_ms_per_eval": round(dc_ms, 3),
        "saved_ms_per_eval": round(saved_ms, 3),
        "saved_vs_dc": round(saved_ms / dc_ms, 2),
        "newton_iterations": stats["newton_iterations"],
        "warm_exact_hits": stats["warm_exact_hits"],
        "warm_near_hits": stats["warm_near_hits"],
        "warm_hit_rate": round(stats["warm_hit_rate"], 3),
        **{k: round(v, 3) for k, v in batch_times.items()},
    })

    # Shape: the fast path is a pure accelerator — cold- and warm-library
    # fast metrics agree with the baseline's.
    for want, got in zip(base_metrics, fast_metrics):
        for key, value in want.values.items():
            assert got.values[key] == pytest.approx(value, rel=1e-8, abs=1e-12)

    if not SMOKE:
        # The acceptance target: the fast path removes (nearly) all of
        # the DC-solve cost of a repeated operating point.
        assert saved_ms >= MIN_DC_SAVING * dc_ms, (
            f"solver fast path saves only {saved_ms:.3f} ms/eval of the "
            f"baseline's {dc_ms:.3f} ms/eval DC solve "
            f"({fast_ms:.3f} vs {base_ms:.3f} ms/eval)"
        )


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
