"""BENCH / runtime — serial vs multi-process wall-clock for the fig3 fan-out.

Records how long the Fig. 3 per-seed fan-out takes on the serial backend
versus a 4-worker process pool, and asserts only the *shape* of the
result: both backends produce identical placements and metrics.  No hard
timing threshold — CI boxes (and this repo's container) may have a
single core, where the pool's process startup makes it *slower*; the
numbers land in ``extra_info`` so the speedup trajectory can be tracked
across machines and PRs.
"""

import time

import pytest

from repro.experiments import ExperimentConfig, run_fig3
from repro.runtime import ProcessPoolBackend, SerialBackend

CONFIG = ExperimentConfig(
    name="CM", builder="cm", max_steps=120, seeds=(1, 2, 3, 4),
    ql_worse_tolerance=0.2,
)


@pytest.mark.benchmark(group="runtime")
def test_parallel_speedup_fig3_seed_fanout(benchmark):
    start = time.perf_counter()
    serial = run_fig3(CONFIG, backend=SerialBackend())
    serial_s = time.perf_counter() - start

    def parallel_run():
        start = time.perf_counter()
        result = run_fig3(CONFIG, backend=ProcessPoolBackend(jobs=4))
        return result, time.perf_counter() - start

    parallel, jobs4_s = benchmark.pedantic(
        parallel_run, rounds=1, iterations=1)

    benchmark.extra_info.update({
        "serial_s": round(serial_s, 3),
        "jobs4_s": round(jobs4_s, 3),
        "speedup_jobs4": round(serial_s / jobs4_s, 3),
        "seeds": len(CONFIG.seeds),
    })

    # Shape only: same work, same answers, whatever the wall-clock.
    assert [r.algorithm for r in serial.rows] == \
        [r.algorithm for r in parallel.rows]
    for a, b in zip(serial.rows, parallel.rows):
        assert a.primary == b.primary
        assert a.sims_to_target == b.sims_to_target
        assert a.primary_runs == b.primary_runs
    assert serial_s > 0 and jobs4_s > 0
