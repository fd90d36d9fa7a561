"""Tests of the benchmark itself (not collected by the repository suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests/check_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# ----------------------------------------------------------- self time

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 30, 0],
        ["b", 40, 70, 0],
        ["c", 45, 55, 2],
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"root": 50e-9, "a": 20e-9, "b": 20e-9,
                                 "c": 10e-9})


def test_self_time_sums_names_and_treats_orphans_as_roots():
    spans = [
        ["x", 0, 10, -1],
        ["x", 20, 50, -1],
        ["y", 25, 35, 1],
        ["y", 60, 65, 99],
    ]
    got = tracer.self_times(spans)
    assert got["x"] == pytest.approx((10 + 20) * 1e-9)
    assert got["y"] == pytest.approx((10 + 5) * 1e-9)
    assert tracer.durations(spans, "y") == pytest.approx([10e-9, 5e-9])


def test_self_times_add_up_to_root_wall():
    spans = [["r", 0, 1000, -1], ["a", 100, 600, 0], ["b", 200, 300, 1],
             ["b", 350, 500, 1], ["a", 700, 900, 0]]
    assert sum(tracer.self_times(spans).values()) == pytest.approx(1000e-9)


def test_wrap_records_nesting_counts_and_exceptions():
    t = tracer.Tracer()

    def hook(args):
        def finish(result):
            t.counts["calls"] += 1
        return finish

    inner = t.wrap("inner", lambda x: x * 2, hook)

    def boom():
        inner(1)
        raise ValueError("boom")

    outer = t.wrap("outer", lambda: inner(3) + inner(4))
    failing = t.wrap("failing", boom)
    assert outer() == 14
    with pytest.raises(ValueError):
        failing()
    names = [s[0] for s in t.spans]
    assert names == ["outer", "inner", "inner", "failing", "inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0, -1, 3]
    assert all(end >= start > 0 for __, start, end, __ in t.spans)
    assert t.counts["calls"] == 3


def test_layer_metrics_from_synthetic_documents():
    doc = {
        "spans": [["runtime.execute_run", 0, 10_000, -1],
                  ["layout.mask", 1_000, 4_000, 0],
                  ["sim.dc", 5_000, 9_000, 0]],
        "counts": {"layout.mask_calls": 1, "eval.requests": 4,
                   "eval.cache_hits": 1},
        "solver": {"warm_exact_hits": 1, "warm_near_hits": 2,
                   "warm_misses": 1, "newton_iterations": 7},
        "imports": {"repro_cli_s": 0.5, "modules": 900, "scipy": 1},
    }
    got = run.layer_metrics([doc, doc], pairs=[(11.0, 10.0), (2.0, 2.0)])
    assert set(got) == {name for name, __ in run.PER_LAYER}
    assert got["runtime.execute_run_s"] == pytest.approx(2 * 3e-6)
    assert got["layout.mask_s"] == pytest.approx(2 * 3e-6)
    assert got["sim.dc_s"] == pytest.approx(2 * 4e-6)
    assert got["layout.mask_calls"] == 2
    assert got["eval.cache_hit_ratio"] == pytest.approx(0.25)
    assert got["sim.op_cache_hit_ratio"] == pytest.approx(0.75)
    assert got["trace.overhead_s"] == pytest.approx(1.0)
    assert got["trace.overhead_pct"] == pytest.approx(5.0)
    assert got["netlist.parse_s"] == 0.0


# -------------------------------------------------------------- inputs

def test_inputs_depend_only_on_the_seed():
    for size in inputs.SIZES:
        pool = inputs.cli_pool(size) + inputs.sim_pool(size)
        assert inputs.ordered(pool, 5) == inputs.ordered(pool, 5)
        assert sorted(map(inputs.key, inputs.ordered(pool, 6))) == sorted(
            map(inputs.key, pool))
    a = inputs.serve_schedule(3, inputs.RUN_SECONDS, "full")
    assert a == inputs.serve_schedule(3, inputs.RUN_SECONDS, "full")
    assert a != inputs.serve_schedule(4, inputs.RUN_SECONDS, "full")


def test_serve_schedule_mix_and_repeat_gap():
    schedule = inputs.serve_schedule(7, inputs.RUN_SECONDS, "full")
    keys = [inputs.key(r) for r in schedule]
    assert len(schedule) >= 100
    first = {}
    repeats = 0
    for i, k in enumerate(keys):
        if k in first:
            repeats += 1
            assert i - first[k] >= inputs.REPEAT_GAP
        else:
            first[k] = i
    assert repeats == len(schedule) // inputs.REPEAT_EVERY
    assert set(first) == {inputs.key(r) for r in inputs.serve_pool("full")}
    decks = sum(1 for r in schedule if "deck" in r)
    assert 0.15 < decks / len(schedule) < 0.35


def test_reference_covers_every_request():
    ref = reference.load()
    for size in inputs.SIZES:
        for pool in inputs.pools(size).values():
            for request in pool:
                assert inputs.key(request) in ref


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == inputs.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)


# ---------------------------------------------------------------- gate

def test_gate_flags_a_perturbed_reference():
    from repro.service.requests import PlacementRequest
    from repro.service.service import PlacementService

    request = inputs.sim_pool("tiny")[0]
    payload = PlacementService().place(PlacementRequest.from_json_dict(
        reference.request_json(request, {}))).to_json_dict()
    observed = reference.observe_payload(json.loads(json.dumps(payload)))

    gate = run.Gate()
    assert gate.check(request, observed)
    assert (gate.attempted, gate.failed) == (1, 0)

    key = inputs.key(request)
    for field, nudge in (("best_cost", lambda v: v * (1 + 1e-12)),
                         ("sims_used", lambda v: v + 1),
                         ("signature", lambda v: v[::-1])):
        gate = run.Gate()
        gate.ref[key] = dict(gate.ref[key], **{field: nudge(gate.ref[key][field])})
        assert not gate.check(request, observed)
        assert (gate.attempted, gate.failed) == (1, 1)

    gate = run.Gate()
    del gate.ref[key]
    assert not gate.check(request, observed)


def test_cli_output_parsing():
    text = ("[cm] x=1\ntarget (best symmetric): 2.4387  reached after 24 "
            "simulations (402 total)\n")
    got = reference.observe_cli(text)
    assert (got["sims_to_target"], got["sims_used"]) == (24, 402)
    never = reference.observe_cli(text.replace("after 24", "after None"))
    assert never["sims_to_target"] is None


# --------------------------------------------------------------- smoke

def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(
        wanted)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        assert values["trace.spans"] > 0
        assert (values["netlist.decks"] > 0) == (workload == "serve_mixed")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench("--workload", "cli_place", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
