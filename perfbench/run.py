"""The repository benchmark: one command, three workloads, checked results.

Run from the repository root::

    python3 perfbench/run.py --workload cli_place|sim_place|serve_mixed \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same inputs once untraced and once with every
layer boundary wrapped (see ``tracer.py``) and reports per-layer self
time, counts and the tracing overhead.  Every result is checked against
``reference.json``; the last stdout line is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.  Details of the run,
with an environment fingerprint, go to ``.perfbench_out/``.
``--size tiny`` shrinks every workload to a seconds-long smoke run.
See ``README.md`` in this directory for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import inputs
import reference
import tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
CHILD = str(Path(__file__).with_name("child.py"))
#: Fresh processes started per run to measure ``setup_s``.
SETUP_REPEATS = 5
#: Longest a served run waits for its backlog after the last send.
DRAIN_LIMIT_S = 30.0
#: Pause between sweeps of the poller over outstanding served jobs.
POLL_INTERVAL_S = 0.5

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("place_wall_s", "s"),
    ("place_wall_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sims_to_target", "count"),
    ("cost_vs_target", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
PER_LAYER = (
    ("import.repro_cli_s", "s"),
    ("import.modules", "count"),
    ("import.scipy", "flag"),
    ("layout.mask_s", "s"),
    ("layout.mask_calls", "count"),
    ("layout.legal_actions", "count"),
    ("layout.state_s", "s"),
    ("layout.contexts_s", "s"),
    ("core.turns", "count"),
    ("core.turn_self_s", "s"),
    ("core.select_s", "s"),
    ("core.learn_s", "s"),
    ("variation.deltas_s", "s"),
    ("route.parasitics_s", "s"),
    ("eval.evaluate_calls", "count"),
    ("eval.sims", "count"),
    ("eval.cache_hit_ratio", "ratio"),
    ("eval.sim_failures", "count"),
    ("eval.suite_s", "s"),
    ("eval.batch_suite_s", "s"),
    ("sim.dc_s", "s"),
    ("sim.dc_calls", "count"),
    ("sim.ac_s", "s"),
    ("sim.batch_solve_s", "s"),
    ("sim.newton_iterations", "count"),
    ("sim.op_cache_hit_ratio", "ratio"),
    ("runtime.execute_run_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.execute_s", "s"),
    ("service.result_cache_share", "ratio"),
    ("service.journal_append_ms", "ms"),
    ("service.journal_appends", "count"),
    ("service.scrape_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("serve.send_late_p90_ms", "ms"),
    ("netlist.decks", "count"),
    ("netlist.parse_s", "s"),
    ("netlist.flatten_s", "s"),
    ("netlist.extract_s", "s"),
    ("netlist.validate_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)

# Per-layer self-time metrics: metric name -> span name.
_SELF_TIME = {
    "layout.mask_s": "layout.mask",
    "layout.state_s": "layout.state",
    "layout.contexts_s": "layout.contexts",
    "core.turn_self_s": "core.turn",
    "core.select_s": "core.select",
    "core.learn_s": "core.learn",
    "variation.deltas_s": "variation.deltas",
    "route.parasitics_s": "route.parasitics",
    "eval.suite_s": "eval.suite",
    "eval.batch_suite_s": "eval.batch_suite",
    "sim.dc_s": "sim.dc",
    "sim.ac_s": "sim.ac",
    "sim.batch_solve_s": "sim.batch_solve",
    "runtime.execute_run_s": "runtime.execute_run",
    "netlist.parse_s": "netlist.parse",
    "netlist.flatten_s": "netlist.flatten",
    "netlist.extract_s": "netlist.extract",
    "netlist.validate_s": "netlist.validate",
}
# Per-layer counters copied straight from the tracer's counts.
_COUNTS = (
    "layout.mask_calls", "layout.legal_actions", "core.turns",
    "eval.evaluate_calls", "eval.sims", "eval.sim_failures", "sim.dc_calls",
    "service.journal_appends", "netlist.decks",
)


# ----------------------------------------------------------------- numbers

def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_group_quantile(samples: list[tuple[str, float]], q: float) -> float:
    """Mean over groups of each group's ``q`` quantile.

    Workloads that mix circuits of different cost would otherwise put
    their median between two modes, where it jumps between runs.
    """
    groups: dict[str, list[float]] = defaultdict(list)
    for name, value in samples:
        groups[name].append(value)
    return statistics.fmean(quantile(v, q) for v in groups.values())


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Gate:
    """Counts operations and checks each result against the reference."""

    def __init__(self) -> None:
        self.ref = reference.load()
        self.attempted = 0
        self.failed = 0
        self.seen: dict[str, dict] = {}

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)

    def check(self, request: dict, observed: dict) -> bool:
        """Record one result; ``False`` (and a failure) on a mismatch."""
        key = inputs.key(request)
        wrong = reference.mismatches(self.ref.get(key), observed)
        if wrong:
            self.fail(f"{key}: {'; '.join(wrong[:3])}")
            return False
        self.attempted += 1
        self.seen.setdefault(key, self.ref[key])
        return True

    def quality(self) -> dict[str, float]:
        """The paper's numbers over the distinct placements checked.

        ``sims_to_target`` sums each placement's simulations to reach its
        symmetric target (``sims_used`` where it never got there);
        ``cost_vs_target`` is the geometric mean of ``best_cost/target``.
        """
        entries = list(self.seen.values())
        if not entries:
            return {}
        return {
            "sims_to_target": float(sum(
                e["sims_used"] if e["sims_to_target"] is None
                else e["sims_to_target"] for e in entries)),
            "cost_vs_target": geomean(
                [e["best_cost"] / e["target"] for e in entries]),
        }


# --------------------------------------------------------------- processes

def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _stderr_log():
    OUT.mkdir(exist_ok=True)
    return open(OUT / "children.log", "a")


def spawn(args: list[str], **kwargs) -> subprocess.Popen:
    """A Python child of this interpreter, from the repository root."""
    with _stderr_log() as log:
        return subprocess.Popen(
            [sys.executable, "-u", *args], cwd=ROOT, env=_env(),
            stderr=log, **kwargs)


def reap(proc: subprocess.Popen) -> int:
    """Wait for a child; returns its peak RSS in KiB."""
    __, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def ready_seconds(mode: str) -> float:
    """Interpreter start until a ``child.py ready`` probe is ready."""
    start = time.perf_counter()
    proc = spawn([CHILD, "ready", mode], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {mode} failed: {line!r}")
    return elapsed


def load_trace(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------- trace split

def layer_metrics(docs: list[dict], service: dict | None = None,
                  pairs: list[tuple[float, float]] = ()) -> dict:
    """Per-layer metrics from traced processes' span documents.

    ``service`` carries the serving numbers measured from outside (job
    records, scrape and submit timings); ``pairs`` holds ``(traced,
    untraced)`` wall times of the same requests.  The overhead in
    seconds is the difference of their sums; the percentage is the
    median per-request ratio, which noise between the two runs moves
    less.
    """
    selfs: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    solver: dict[str, float] = defaultdict(float)
    appends: list[float] = []
    spans = 0
    for doc in docs:
        for name, value in tracer.self_times(doc["spans"]).items():
            selfs[name] += value
        for name, value in doc["counts"].items():
            counts[name] += value
        for name, value in doc["solver"].items():
            solver[name] += value
        appends += tracer.durations(doc["spans"], "service.journal_append")
        spans += len(doc["spans"])
    imports = [doc["imports"] for doc in docs]
    warm = solver["warm_exact_hits"] + solver["warm_near_hits"]
    lookups = warm + solver["warm_misses"]
    ratios = [traced / untraced for traced, untraced in pairs]
    out = {
        "import.repro_cli_s": statistics.median(
            i["repro_cli_s"] for i in imports) if imports else 0.0,
        "import.modules": statistics.median(
            i["modules"] for i in imports) if imports else 0,
        "import.scipy": max((i["scipy"] for i in imports), default=0),
        **{metric: selfs.get(span, 0.0) for metric, span in _SELF_TIME.items()},
        **{name: counts.get(name, 0) for name in _COUNTS},
        "eval.cache_hit_ratio": (counts["eval.cache_hits"]
                                 / counts["eval.requests"]
                                 if counts["eval.requests"] else 0.0),
        "sim.newton_iterations": solver["newton_iterations"],
        "sim.op_cache_hit_ratio": warm / lookups if lookups else 0.0,
        "service.journal_append_ms": (statistics.median(appends) * 1e3
                                      if appends else 0.0),
        "trace.spans": spans,
        "trace.overhead_s": sum(t - u for t, u in pairs),
        "trace.overhead_pct": ((statistics.median(ratios) - 1) * 100
                               if ratios else 0.0),
    }
    service = service or {}
    for name in ("service.queue_wait_s", "service.execute_s",
                 "service.result_cache_share", "service.scrape_ms",
                 "service.submit_ms", "serve.send_late_p90_ms"):
        out[name] = service.get(name, 0.0)
    return out


# --------------------------------------------------------------- cli_place

def _cli_once(gate: Gate, request: dict, trace_out: Path | None):
    """One cold ``repro place`` process: ``(wall_s, peak_rss_kb)``."""
    argv = reference.cli_argv(request)
    args = ([CHILD, "cli", "--trace-out", str(trace_out), "--", *argv]
            if trace_out else ["-m", "repro", *argv])
    start = time.perf_counter()
    proc = spawn(args, stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    rss = reap(proc)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        gate.fail(f"{inputs.key(request)}: exit code {proc.returncode}")
        return None
    if not gate.check(request, reference.observe_cli(stdout)):
        return None
    return wall, rss


def run_cli_place(seed: int, seconds: float, trace: bool, size: str) -> dict:
    pool = inputs.ordered(inputs.cli_pool(size), seed)
    gate = Gate()
    if trace:
        docs, pairs = [], []
        for i, request in enumerate(pool):
            path = OUT / f"trace-cli_place-{i}.json"
            plain = _cli_once(gate, request, None)
            wrapped = _cli_once(gate, request, path)
            if plain and wrapped:
                pairs.append((wrapped[0], plain[0]))
                docs.append(load_trace(path))
        return _result(gate, layer_metrics(docs, pairs=pairs))

    setups = [ready_seconds("cli") for __ in range(SETUP_REPEATS)]
    walls: list[tuple[dict, float]] = []
    rss = 0
    start = time.perf_counter()
    i = 0
    while i < len(pool) or time.perf_counter() - start < seconds:
        request = pool[i % len(pool)]
        i += 1
        done = _cli_once(gate, request, None)
        if done:
            walls.append((request, done[0]))
            rss = max(rss, done[1])
    elapsed = time.perf_counter() - start
    return _result(gate, _wall_metrics(setups, walls, elapsed, rss, gate),
                   samples=_samples(setups, walls))


def _samples(setups, walls) -> list:
    """Every timing of a run, for the details file."""
    return [["setup", s] for s in setups] + [
        [inputs.group(request), wall] for request, wall in walls]


def _wall_metrics(setups, walls, elapsed, rss_kb, gate) -> dict:
    """End-to-end metrics of a run of synchronous placements."""
    if not walls:
        return {}
    walls = [(inputs.group(request), wall) for request, wall in walls]
    return {
        "setup_s": statistics.median(setups),
        "place_wall_s": per_group_quantile(walls, 0.5),
        "place_wall_p90_s": per_group_quantile(walls, 0.9),
        "jobs_per_s": len(walls) / elapsed,
        **gate.quality(),
        "peak_rss_mb": rss_kb / 1024,
    }


# --------------------------------------------------------------- sim_place

class SimWorker:
    """A long-lived ``PlacementService`` process (``child.py sim``)."""

    def __init__(self, trace_out: Path | None = None):
        args = [CHILD, "sim"]
        if trace_out:
            args += ["--trace-out", str(trace_out)]
        start = time.perf_counter()
        self.proc = spawn(args, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        self.setup_s = time.perf_counter() - start
        if line != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"sim worker did not start: {line!r}")

    def place(self, body: dict) -> dict:
        self.proc.stdin.write(json.dumps({"request": body}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> int:
        """Stop the worker; returns its peak RSS in KiB."""
        self.proc.stdin.write(json.dumps({"exit": True}) + "\n")
        self.proc.stdin.close()
        rss_kb = json.loads(self.proc.stdout.readline())["rss_kb"]
        self.proc.stdout.close()
        self.proc.wait()
        return rss_kb


def _sim_pass(gate: Gate, worker: SimWorker, requests: list[dict],
              walls: list[tuple[dict, float]]) -> None:
    for request in requests:
        reply = worker.place(reference.request_json(request, {}))
        if gate.check(request, reference.observe_payload(reply["payload"])):
            walls.append((request, reply["wall_s"]))


def run_sim_place(seed: int, seconds: float, trace: bool, size: str) -> dict:
    pool = inputs.ordered(inputs.sim_pool(size), seed)
    gate = Gate()
    if trace:
        plain: list = []
        wrapped: list = []
        worker = SimWorker()
        try:
            _sim_pass(gate, worker, pool, plain)
        finally:
            worker.close()
        path = OUT / "trace-sim_place.json"
        worker = SimWorker(path)
        try:
            _sim_pass(gate, worker, pool, wrapped)
        finally:
            worker.close()
        untraced = {inputs.key(r): wall for r, wall in plain}
        pairs = [(wall, untraced[inputs.key(r)]) for r, wall in wrapped
                 if inputs.key(r) in untraced]
        return _result(gate, layer_metrics([load_trace(path)], pairs=pairs))

    setups = [ready_seconds("sim") for __ in range(SETUP_REPEATS - 1)]
    walls: list[tuple[dict, float]] = []
    worker = SimWorker()
    setups.append(worker.setup_s)
    try:
        start = time.perf_counter()
        i = 0
        while i < len(pool) or time.perf_counter() - start < seconds:
            _sim_pass(gate, worker, [pool[i % len(pool)]], walls)
            i += 1
        elapsed = time.perf_counter() - start
    finally:
        rss = worker.close()
    return _result(gate, _wall_metrics(setups, walls, elapsed, rss, gate),
                   samples=_samples(setups, walls))


# ------------------------------------------------------------- serve_mixed

class Server:
    """A ``repro serve`` process with a fresh journal and the result cache."""

    def __init__(self, name: str, trace_out: Path | None = None):
        self.journal = OUT / f"journal-{name}"
        shutil.rmtree(self.journal, ignore_errors=True)
        argv = ["serve", "--port", "0", "--journal-dir", str(self.journal),
                "--result-cache", "--job-workers", "2"]
        args = ([CHILD, "cli", "--trace-out", str(trace_out), "--", *argv]
                if trace_out else ["-m", "repro", *argv])
        start = time.perf_counter()
        self.proc = spawn(args, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.url = line.split("listening on ", 1)[1].split()[0]
            deadline = time.perf_counter() + 60
            while self.proc.poll() is None and time.perf_counter() < deadline:
                try:
                    if http("GET", self.url + "/healthz")[0] == 200:
                        break
                except OSError:
                    time.sleep(0.01)
            else:
                raise RuntimeError("repro serve never answered /healthz")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self) -> None:
        """SIGTERM (a graceful drain) and wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.journal, ignore_errors=True)


def http(method: str, url: str, body: dict | None = None):
    """``(status, decoded body)`` of one HTTP exchange."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read()
            status = resp.status
            kind = resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        raw, status, kind = exc.read(), exc.code, "application/json"
    return status, json.loads(raw) if "json" in kind else raw.decode()


def drive(server: Server, schedule: list[dict], decks: dict, gate: Gate,
          size: str) -> dict:
    """Send ``schedule`` open-loop and collect every job's final record.

    One generator thread sends request ``i`` at ``i / rate`` seconds and
    scrapes ``/metrics`` every :data:`inputs.SCRAPE_INTERVAL_S`; a
    poller thread watches outstanding jobs.  Latency runs from each
    request's scheduled send time to the job's ``finished_at``.
    """
    rate, __ = inputs.serve_design(size)
    duration = len(schedule) / rate
    events = sorted(
        [(i / rate, 1, i) for i in range(len(schedule))]
        + [(k * inputs.SCRAPE_INTERVAL_S, 0, -1)
           for k in range(1, int(duration / inputs.SCRAPE_INTERVAL_S) + 1)])
    bodies = [reference.request_json(r, decks) for r in schedule]
    jobs: dict[str, int] = {}
    records: dict[int, dict] = {}
    submit_ms: list[float] = []
    scrape_ms: list[float] = []
    late_ms: list[float] = []
    lock = threading.Lock()
    sent = threading.Event()
    base_mono = time.perf_counter()
    base_epoch = time.time()

    def generate() -> None:
        try:
            for offset, is_place, i in events:
                delay = base_mono + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late_ms.append((time.perf_counter() - base_mono - offset) * 1e3)
                start = time.perf_counter()
                try:
                    if is_place:
                        status, reply = http("POST", server.url + "/place",
                                             bodies[i])
                    else:
                        status, reply = http("GET", server.url + "/metrics")
                except OSError as exc:
                    gate.fail(f"{'POST /place' if is_place else '/metrics'}"
                              f": {exc}")
                    continue
                (submit_ms if is_place else scrape_ms).append(
                    (time.perf_counter() - start) * 1e3)
                if not is_place:
                    if status != 200 or "repro_jobs" not in reply:
                        gate.fail(f"/metrics answered {status}")
                    else:
                        gate.attempted += 1
                    continue
                if status != 202:
                    gate.fail(f"POST /place #{i} answered {status}: {reply}")
                    continue
                with lock:
                    jobs[reply["job"]] = i
        finally:
            sent.set()

    def poll() -> None:
        deadline = None
        while True:
            with lock:
                pending = list(jobs.items())
            for job, i in pending:
                try:
                    status, record = http("GET", f"{server.url}/jobs/{job}")
                except OSError:
                    continue  # polled again next sweep, until the limit
                if status == 200 and record["state"] in ("queued", "running"):
                    continue
                with lock:
                    del jobs[job]
                records[i] = record if status == 200 else {"state": status}
            if sent.is_set():
                deadline = deadline or time.perf_counter() + DRAIN_LIMIT_S
                if not pending or time.perf_counter() > deadline:
                    return
            time.sleep(POLL_INTERVAL_S)

    threads = [threading.Thread(target=generate),
               threading.Thread(target=poll)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    latencies: list[float] = []
    executes: dict[str, float] = {}
    waits: list[float] = []
    cached = 0
    last_finish = base_epoch
    for i in range(len(schedule)):
        record = records.get(i)
        if record is None:
            if i in jobs.values():
                gate.fail(f"request #{i} unfinished after the drain limit")
            continue
        if record.get("state") != "done":
            gate.fail(f"request #{i} ended {record.get('state')}: "
                      f"{record.get('error')}")
            continue
        if not gate.check(schedule[i],
                          reference.observe_payload(record["result"])):
            continue
        latencies.append(record["finished_at"] - base_epoch - i / rate)
        last_finish = max(last_finish, record["finished_at"])
        if record.get("cached"):
            cached += 1
        else:
            executes.setdefault(inputs.key(schedule[i]),
                                record["finished_at"] - record["started_at"])
            waits.append(record["started_at"] - record["submitted_at"])
    return {
        "latencies": latencies,
        "executes": executes,
        "jobs_per_s": len(latencies) / max(1e-9, last_finish - base_epoch),
        "service.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "service.execute_s": (statistics.median(executes.values())
                              if executes else 0.0),
        "service.result_cache_share": (cached / len(latencies)
                                       if latencies else 0.0),
        "service.scrape_ms": (statistics.median(scrape_ms)
                              if scrape_ms else 0.0),
        "service.submit_ms": (statistics.median(submit_ms)
                              if submit_ms else 0.0),
        "serve.send_late_p90_ms": quantile(late_ms, 0.9) if late_ms else 0.0,
    }


def run_serve_mixed(seed: int, seconds: float, trace: bool, size: str) -> dict:
    from repro.service.corpus import list_corpus

    decks = {entry.name: entry for entry in list_corpus(ROOT / "corpus")}
    schedule = inputs.serve_schedule(seed, seconds, size)
    gate = Gate()
    if trace:
        server = Server("untraced")
        try:
            plain = drive(server, schedule, decks, gate, size)
        finally:
            server.stop()
        path = OUT / "trace-serve_mixed.json"
        server = Server("traced", path)
        try:
            wrapped = drive(server, schedule, decks, gate, size)
        finally:
            server.stop()
        pairs = [(wall, plain["executes"][key])
                 for key, wall in wrapped["executes"].items()
                 if key in plain["executes"]]
        return _result(gate, layer_metrics([load_trace(path)], wrapped,
                                           pairs))

    setups = []
    for n in range(SETUP_REPEATS - 1):
        probe = Server(f"setup-{n}")
        setups.append(probe.setup_s)
        probe.stop()
    server = Server("run")
    setups.append(server.setup_s)
    try:
        served = drive(server, schedule, decks, gate, size)
        rss = server.peak_rss_kb()
    finally:
        server.stop()
    metrics = {}
    if served["latencies"]:
        metrics = {
            "setup_s": statistics.median(setups),
            "place_wall_s": quantile(served["latencies"], 0.5),
            "place_wall_p90_s": quantile(served["latencies"], 0.9),
            "jobs_per_s": served["jobs_per_s"],
            **gate.quality(),
            "peak_rss_mb": rss / 1024,
        }
    extra = {k: v for k, v in served.items() if k.startswith(("service.",
                                                              "serve."))}
    return _result(gate, metrics, extra, [["setup", s] for s in setups] + [
        ["latency", latency] for latency in served["latencies"]])


# ------------------------------------------------------------------ report

def _result(gate: Gate, metrics: dict, extra: dict | None = None,
            samples: list | None = None) -> dict:
    return {"gate": gate, "metrics": metrics, "extra": extra or {},
            "samples": samples or []}


def host_speed() -> dict:
    """Seconds for two fixed kernels: a Python loop and small dense
    solves.  Recorded before and after a run; slow readings mark a run
    taken while the host was busy."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    python_s = time.perf_counter() - start
    matrix = np.eye(12) * 12 + np.ones((12, 12))
    vector = np.ones(12)
    start = time.perf_counter()
    for __ in range(5000):
        np.linalg.solve(matrix, vector)
    return {"python_loop_s": python_s,
            "numpy_solve_s": time.perf_counter() - start}


def fingerprint() -> dict:
    """What the numbers were measured on, so noisy runs can be told apart."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except OSError:
            commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load_avg_1_5_15": list(os.getloadavg()),
        "host_speed_before": host_speed(),
    }


WORKLOADS = {
    "cli_place": run_cli_place,
    "sim_place": run_sim_place,
    "serve_mixed": run_serve_mixed,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=inputs.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=inputs.SIZES, default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    env = fingerprint()
    outcome = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), args.size)
    gate: Gate = outcome["gate"]
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in wanted if name in outcome["metrics"]}
    correct = gate.failed == 0 and len(metrics) == len(wanted)
    summary = {"correct": correct, "attempted": max(1, gate.attempted),
               "failed": gate.failed if gate.attempted else 1,
               "metrics": metrics}
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "size": args.size,
               "fingerprint": {**env, "host_speed_after": host_speed()},
               "error_rate": summary["failed"] / summary["attempted"],
               "extra": outcome["extra"], "samples": outcome["samples"],
               **summary}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1))
    print(f"fingerprint: {json.dumps(env)}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    units = dict(PER_LAYER)
    for name, value in outcome["extra"].items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    print(f"{'error_rate':28s} {details['error_rate']:.6g} "
          f"({summary['failed']}/{summary['attempted']})")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
