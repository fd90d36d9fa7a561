"""Distributed placement over loopback TCP, with a mid-run worker kill.

The cluster acceptance demo, end to end:

1. compute a serial baseline for a batch of Q-learning placement runs:
   library-keyed ``cm`` runs plus one corpus-deck and one inline-deck
   run, which the workers ingest from the deck text the specs carry;
2. start a coordinator (:class:`ClusterBackend`) on a loopback port and
   two worker daemons as real ``python -m repro worker`` subprocesses;
3. drain the same batch through the cluster twice, each time SIGKILLing
   one whole worker daemon (its slots included) while it holds a lease:
   once through ``resilient_map_runs`` (the killed attempt is charged
   and retried) and once through plain ``map_runs`` (the dead worker's
   spec is re-run), with a fresh daemon joining before the second;
4. assert every payload of both drains is **bit-identical** to the
   serial baseline — the coordinator re-ran the dead worker's spec, and
   nothing else changed.

Run:
    python examples/cluster_demo.py                # two workers, one killed
    python examples/cluster_demo.py --no-kill      # clean two-worker drains
    python examples/cluster_demo.py --seeds 8 --steps 300

Exits non-zero if any payload differs from the serial baseline (or a
kill was requested but no worker death was observed).  CI runs this as
the loopback-cluster smoke test.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.runtime import (  # noqa: E402 — path bootstrap above
    ClusterBackend,
    RetryPolicy,
    RunSpec,
    SerialBackend,
    map_runs,
    resilient_map_runs,
)
from repro.runtime.wire import outcome_to_wire  # noqa: E402
from repro.service import PlacementRequest  # noqa: E402
from repro.service.corpus import list_corpus  # noqa: E402


def _specs(seeds: int, steps: int) -> list[RunSpec]:
    specs = [
        RunSpec(key=("QL", seed), builder="cm", placer="ql", seed=seed,
                max_steps=steps, target_from_symmetric=True)
        for seed in range(1, seeds + 1)
    ]
    entries = {entry.name: entry for entry in list_corpus()}
    # A corpus deck, as a corpus registry names it ...
    specs.append(RunSpec(
        key=("deck", "corpus"), builder=entries["mirror_tree"].deck(),
        seed=1, max_steps=steps, target_from_symmetric=True,
    ))
    # ... and an inline deck, as a served /place request carries it.
    wide = entries["mirror_wide"]
    specs.append(RunSpec.from_request(PlacementRequest(
        spice=wide.text(), spice_kind=wide.kind, spice_name="inline",
        spice_inputs=wide.input_nets, spice_outputs=wide.output_nets,
        spice_params=wide.params, steps=steps, seed=1,
    ), key=("deck", "inline")))
    return specs


def _canon(outcomes) -> list[str]:
    return [json.dumps(outcome_to_wire(o), sort_keys=True)
            for o in outcomes]


def _spawn_worker(host: str, port: int, name: str) -> subprocess.Popen:
    """One ``repro worker`` daemon in its own session (so a SIGKILL to
    the process group takes its execution slots down with it — exactly
    what losing a machine looks like to the coordinator)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"{host}:{port}", "--jobs", "1", "--name", name],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _kill_at_lease(backend: ClusterBackend, victim: subprocess.Popen,
                   name: str, delay_s: float,
                   drained: threading.Event) -> threading.Event:
    """SIGKILL ``victim`` (daemon ``name``) once it holds a lease, so the
    kill lands mid-task however fast the runs are.  Returns an event set
    when the kill struck."""
    struck = threading.Event()

    def _kill():
        time.sleep(delay_s)
        while not any(w["name"].startswith(f"{name}/") and w["leased"]
                      for w in backend.workers()):
            if drained.wait(0.001):
                return
        print(f"      SIGKILL {name} (pgid {os.getpgid(victim.pid)}) "
              "mid-run")
        os.killpg(os.getpgid(victim.pid), signal.SIGKILL)
        struck.set()

    threading.Thread(target=_kill, daemon=True).start()
    return struck


def _mismatch(specs, payloads, baseline) -> list:
    return [specs[i].key for i, (a, b) in
            enumerate(zip(payloads, baseline)) if a != b]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="cluster backend demo: two workers, one killed")
    parser.add_argument("--seeds", type=int, default=6,
                        help="cm placement runs besides the two deck "
                             "runs (default 6)")
    parser.add_argument("--steps", type=int, default=200,
                        help="annealing steps per run (default 200)")
    parser.add_argument("--no-kill", action="store_true",
                        help="skip the mid-run worker kills")
    parser.add_argument("--kill-after", type=float, default=0.0,
                        help="seconds into each drain before its victim "
                             "is killed at its next lease")
    args = parser.parse_args()

    specs = _specs(args.seeds, args.steps)
    print(f"[1/4] serial baseline: {len(specs)} runs ...")
    t0 = time.perf_counter()
    baseline = _canon(map_runs(specs, SerialBackend()))
    print(f"      done in {time.perf_counter() - t0:.1f}s")

    backend = ClusterBackend()
    host, port = backend.address
    print(f"[2/4] coordinator on {host}:{port}; starting 2 workers ...")
    workers = [_spawn_worker(host, port, f"worker-{i}") for i in (1, 2)]
    drained = threading.Event()
    try:
        backend.wait_for_workers(2, timeout_s=60.0)
        print(f"      connected: "
              f"{[w['name'] for w in backend.workers()]}")

        print("[3/4] drain 1 (resilient_map_runs)"
              + (", killing worker-2" if not args.no_kill else ""))
        if not args.no_kill:
            _kill_at_lease(backend, workers[1], "worker-2",
                           args.kill_after, drained)
        t0 = time.perf_counter()
        report = resilient_map_runs(
            specs, backend=backend,
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.0,
                              jitter_frac=0.0),
        )
        resilient_s = time.perf_counter() - t0

        workers.append(_spawn_worker(host, port, "worker-3"))
        backend.wait_for_workers(2, timeout_s=60.0)
        print("      drain 2 (map_runs)"
              + (", killing worker-3" if not args.no_kill else ""))
        plain_kill = None
        if not args.no_kill:
            plain_kill = _kill_at_lease(backend, workers[2], "worker-3",
                                        args.kill_after, drained)
        t0 = time.perf_counter()
        plain = _canon(map_runs(specs, backend))
        plain_s = time.perf_counter() - t0
    finally:
        drained.set()
        backend.close()
        for worker in workers:
            if worker.poll() is None:
                try:
                    worker.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    worker.kill()

    print(f"[4/4] drain 1: {resilient_s:.1f}s, "
          f"worker_deaths={report.worker_deaths}, "
          f"retries={report.retries}, "
          f"quarantined={list(report.quarantined)}; "
          f"drain 2: {plain_s:.1f}s")

    for label, payloads in (("resilient_map_runs", _canon(report.outcomes)),
                            ("map_runs", plain)):
        bad = _mismatch(specs, payloads, baseline)
        if bad:
            print(f"FAIL: {label} payload mismatch vs serial baseline "
                  f"at {bad}")
            return 1
    if not args.no_kill and (report.worker_deaths < 1
                             or not plain_kill.is_set()):
        print("FAIL: kills were requested but a drain saw no worker "
              "death (it finished before the kill landed? lower "
              "--kill-after)")
        return 1
    print(f"OK: all {len(specs)} payloads of both drains bit-identical "
          f"to the serial baseline"
          f"{'' if args.no_kill else ' despite the kills'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
