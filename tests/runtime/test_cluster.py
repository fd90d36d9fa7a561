"""Cluster backend mechanics and the distributed bit-identity claim.

Workers here are in-process threads running :func:`run_worker` — the
full TCP protocol (hello, leases, heartbeats, results, shutdown) over
loopback, without process-spawn latency.  Process-level worker death is
covered by ``tests/faults/test_cluster_recovery.py``.
"""

import ast
import base64
import json
import pickle
import socket
import threading
from pathlib import Path

import pytest

from repro.runtime import (
    ClusterBackend,
    ExecutionBackend,
    ProcessPoolBackend,
    RunSpec,
    SerialBackend,
    WorkerTaskError,
    make_backend,
    map_runs,
    run_worker,
)
from repro.runtime.backend import ATTEMPT_ERROR, ATTEMPT_KILLED
from repro.runtime.spec import execute_run
from repro.runtime.wire import (
    execute_task,
    outcome_to_wire,
    recv_frame,
    send_frame,
)
from repro.service import PlacementRequest
from repro.service.corpus import list_corpus

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _small(key, seed=1, **kwargs):
    """A spec that runs in milliseconds (ota5t, one step, no metrics)."""
    return RunSpec(key=key, builder="ota5t", seed=seed, max_steps=1,
                   evaluate_best=False, **kwargs)


def _costs(outcomes):
    return [o.result.best_cost for o in outcomes]


def _thread_workers(backend, n):
    """Start ``n`` worker threads against ``backend``; returns
    (threads, exit_codes) — codes fill in as workers shut down."""
    host, port = backend.address
    codes = []

    def _serve(index):
        codes.append(run_worker(host, port, name=f"thread-{index}"))

    threads = [
        threading.Thread(target=_serve, args=(i,), daemon=True)
        for i in range(n)
    ]
    for thread in threads:
        thread.start()
    backend.wait_for_workers(n, timeout_s=10.0)
    return threads, codes


class TestMakeBackend:
    def test_serial_spellings(self):
        for spec in (None, 0, 1, "1", "serial"):
            assert isinstance(make_backend(spec), SerialBackend)

    def test_pool_spellings(self):
        for spec, jobs in ((3, 3), ("4", 4), ("pool:2", 2)):
            backend = make_backend(spec)
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.jobs == jobs
        assert isinstance(make_backend("pool"), ProcessPoolBackend)

    def test_backend_passes_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_cluster_spec_binds_coordinator(self):
        backend = make_backend("cluster:127.0.0.1:0")
        try:
            assert isinstance(backend, ClusterBackend)
            host, port = backend.address
            assert host == "127.0.0.1" and port > 0
            assert backend.spec == f"cluster:127.0.0.1:{port}"
        finally:
            backend.close()

    def test_bad_specs_rejected(self):
        for bad in ("warp", "pool:x", "cluster:nowhere", "-2"):
            with pytest.raises(ValueError):
                make_backend(bad)


class TestClusterMap:
    def test_maps_in_order_across_workers(self):
        specs = [_small(i, seed=i) for i in range(12)]
        with ClusterBackend() as backend:
            __, codes = _thread_workers(backend, 2)
            assert backend.worker_count == 2
            assert backend.jobs == 2
            settled, deaths = backend.map_attempts(execute_run, specs)
            assert deaths == 0
            result = [attempt.value for attempt in settled]
            assert [o.key for o in result] == list(range(12))
            assert _costs(result) == _costs(map_runs(specs))
        # close() sends shutdown frames; both workers exit cleanly.
        for __ in range(100):
            if len(codes) == 2:
                break
            threading.Event().wait(0.05)
        assert codes == [0, 0]

    def test_empty_map_needs_no_workers(self):
        with ClusterBackend() as backend:
            assert backend.map_attempts(execute_run, []) == ([], 0)
            assert map_runs([], backend) == []

    def test_worker_error_propagates(self):
        failing = _small(2, builder_kwargs=(("boom", 1),))
        with ClusterBackend() as backend:
            _thread_workers(backend, 1)
            with pytest.raises(WorkerTaskError, match="boom"):
                map_runs([_small(1), failing], backend)

    def test_other_work_refused_before_sending(self):
        # No worker is connected: the refusal cannot wait for one.
        with ClusterBackend(start_timeout_s=0.3) as backend:
            with pytest.raises(TypeError, match="cluster workers run only"):
                backend.map_attempts(outcome_to_wire, [_small(1)])
            with pytest.raises(TypeError, match="cluster workers run only"):
                backend.map_attempts(execute_run, ["cm"])

    def test_satisfies_protocol(self):
        with ClusterBackend() as backend:
            assert isinstance(backend, ExecutionBackend)

    def test_workers_listing_names_slots(self):
        with ClusterBackend() as backend:
            _thread_workers(backend, 2)
            names = {w["name"] for w in backend.workers()}
            assert names == {"thread-0", "thread-1"}

    def test_no_workers_raises_with_join_hint(self):
        with ClusterBackend(start_timeout_s=0.3) as backend:
            with pytest.raises(RuntimeError, match="repro worker"):
                map_runs([_small(1)], backend)


def _canon(outcomes):
    return [json.dumps(outcome_to_wire(o), sort_keys=True)
            for o in outcomes]


class TestClusterBitIdentity:
    """The acceptance rail: serial ≡ pool ≡ cluster, byte for byte."""

    def _specs(self):
        return [
            RunSpec(key=("QL", seed), builder="cm", placer="ql",
                    seed=seed, max_steps=20, target_from_symmetric=True)
            for seed in (1, 2, 3)
        ]

    def test_serial_pool_cluster_identical_payloads(self):
        serial = _canon(map_runs(self._specs(), SerialBackend()))
        pooled = _canon(
            map_runs(self._specs(), ProcessPoolBackend(jobs=2)))
        with ClusterBackend() as backend:
            _thread_workers(backend, 2)
            clustered = _canon(map_runs(self._specs(), backend))
        assert serial == pooled
        assert serial == clustered

    def test_reuse_across_waves(self):
        # One backend, several map calls: leases/slots must reset.
        with ClusterBackend() as backend:
            _thread_workers(backend, 2)
            first = _canon(map_runs(self._specs(), backend))
            second = _canon(map_runs(self._specs(), backend))
            (single,) = map_runs([_small(4)], backend)
        assert first == second
        assert single.key == 4

    def test_deck_kwarg_and_variation_specs_identical(self):
        """Both circuit forms cross every backend byte for byte: an
        inline deck (as ``/place`` sends it), a corpus deck, a library
        key with builder keywords, and a variation-regime spec."""
        entries = {entry.name: entry for entry in list_corpus()}
        wide = entries["mirror_wide"]
        inline = RunSpec.from_request(PlacementRequest(
            spice=wide.text(), spice_kind=wide.kind, spice_name="inline",
            spice_inputs=wide.input_nets, spice_outputs=wide.output_nets,
            spice_params=wide.params, steps=20, seed=1,
        ), key="inline")
        specs = [
            inline,
            RunSpec(key="corpus", builder=entries["mirror_tree"].deck(),
                    seed=2, max_steps=20, target_from_symmetric=True),
            RunSpec(key="sized", builder="cm", seed=3, max_steps=20,
                    builder_kwargs=(("units_per_device", 3),),
                    target_from_symmetric=True),
            RunSpec(key="linear", builder="cm", seed=4, max_steps=20,
                    target_from_symmetric=True, share_target_evaluator=True,
                    variation_kind="linear", variation_with_lde=False),
        ]
        serial = _canon(map_runs(specs, SerialBackend()))
        pooled = _canon(map_runs(specs, ProcessPoolBackend(jobs=2)))
        with ClusterBackend() as backend:
            _thread_workers(backend, 2)
            clustered = _canon(map_runs(specs, backend))
        assert serial == pooled
        assert serial == clustered


class TestClusterFailureParity:
    """A failing spec and a dead slot look the same on every backend."""

    def test_failing_spec_raises_the_same_error_everywhere(self):
        specs = [_small("good"),
                 _small("bad", seed=2, builder_kwargs=(("boom", 1),))]
        messages = []
        with ClusterBackend() as cluster:
            _thread_workers(cluster, 2)
            for backend in (SerialBackend(), make_backend("pool:2"),
                            cluster):
                with pytest.raises(WorkerTaskError) as excinfo:
                    map_runs(specs, backend)
                messages.append(str(excinfo.value))
        assert messages[0].startswith("item 1 (key='bad'")
        assert "boom" in messages[0]
        assert messages == [messages[0]] * 3

    def test_map_runs_survives_a_slot_death(self):
        specs = [_small(i, seed=i) for i in range(3)]
        baseline = _canon(map_runs(specs, SerialBackend()))
        with ClusterBackend() as backend:
            peer = _fake_peer(backend)
            driver, results = _drive(map_runs, specs, backend)
            assert recv_frame(peer)["type"] == "work"
            peer.close()  # dies holding the first lease
            _thread_workers(backend, 1)
            driver.join(timeout=30.0)
            assert not driver.is_alive(), "map_runs hung on the death"
        assert _canon(results[0]) == baseline


def _fake_peer(backend, name="fake"):
    """A raw socket registered as one more worker slot of ``backend``."""
    count = backend.worker_count + 1
    sock = socket.create_connection(backend.address, timeout=10.0)
    send_frame(sock, {"type": "hello", "name": name, "pid": 0})
    assert backend.wait_for_workers(count, timeout_s=10.0) == count
    return sock


def _drive(fn, *args):
    """Run ``fn(*args)`` on a daemon thread; returns (thread, results)."""
    results = []
    thread = threading.Thread(
        target=lambda: results.append(fn(*args)), daemon=True)
    thread.start()
    return thread, results


def _answer_lease(backend, reply):
    """Lease one spec to a fake peer, let ``reply(work)`` answer it, and
    return what ``map_attempts`` settled.  The driver thread is joined
    with a timeout, so a coordinator that hangs fails the test."""
    peer = _fake_peer(backend)
    try:
        driver, results = _drive(
            backend.map_attempts, execute_run, [_small("lease")])
        work = recv_frame(peer)
        assert work["type"] == "work"
        send_frame(peer, reply(work))
        driver.join(timeout=10.0)
        assert not driver.is_alive(), "coordinator hung on the reply"
    finally:
        peer.close()
    (attempt,), deaths = results[0]
    return attempt, deaths


class TestUntrustedPeer:
    """A peer on the port can take or answer placement work, but its
    frames are data: none is unpickled, none kills the coordinator."""

    @pytest.mark.parametrize("reply", [
        lambda work: [1, 2],
        lambda work: {"type": "result", "id": [work["id"]], "status": "ok"},
        lambda work: {"type": "result", "id": True, "status": "ok"},
        lambda work: {"type": "result", "id": work["id"] + 7,
                      "status": "ok"},
        lambda work: {"type": "result", "id": work["id"],
                      "status": "error", "error": ["x"]},
    ], ids=["list-frame", "list-id", "bool-id", "unknown-id",
            "list-error"])
    def test_malformed_frame_is_a_dead_slot(self, reply):
        with ClusterBackend(heartbeat_timeout_s=2.0) as backend:
            attempt, deaths = _answer_lease(backend, reply)
            assert attempt.status == ATTEMPT_KILLED
            assert deaths == 1
            assert backend.worker_count == 0

    def test_result_for_another_slots_task_is_refused(self):
        with ClusterBackend() as backend:
            holder = _fake_peer(backend, "holder")
            forger = _fake_peer(backend, "forger")
            try:
                driver, results = _drive(
                    backend.map_attempts, execute_run, [_small("lease")])
                work = recv_frame(holder)  # the first idle slot leases
                send_frame(forger, {
                    "type": "result", "id": work["id"],
                    "status": "error", "error": "forged",
                })
                for __ in range(250):
                    if backend.worker_count == 1:
                        break
                    threading.Event().wait(0.02)
                assert [w["name"] for w in backend.workers()] == [
                    "holder"], "the forger's slot survived its forgery"
                send_frame(holder, {"type": "result", "id": work["id"],
                                    **execute_task(work["task"])})
                driver.join(timeout=10.0)
                assert not driver.is_alive()
            finally:
                holder.close()
                forger.close()
        (attempt,), deaths = results[0]
        assert attempt.ok and attempt.value.key == "lease"
        assert deaths == 0

    def test_pickle_codec_result_is_never_unpickled(self, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("unpickled a peer's bytes")

        monkeypatch.setattr(pickle, "loads", refuse)
        payload = base64.b64encode(pickle.dumps({"x": 1})).decode("ascii")
        with ClusterBackend(heartbeat_timeout_s=2.0) as backend:
            attempt, __ = _answer_lease(backend, lambda work: {
                "type": "result", "id": work["id"], "status": "ok",
                "codec": "pickle", "value": payload,
            })
        assert calls == []
        assert attempt.status == ATTEMPT_ERROR
        assert "undecodable result" in attempt.error

    def test_no_src_module_imports_pickle(self):
        importers = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                    if isinstance(node, ast.ImportFrom) else []
                )
                if any(name.split(".")[0] == "pickle" for name in names):
                    importers.append(path.relative_to(SRC).as_posix())
        assert importers == []


class TestUntrustedCoordinator:
    """A worker reads its coordinator's frames as data too: a frame of
    the wrong shape ends the slot cleanly (exit 0), never with a crash
    that would put a ``repro worker`` daemon into a respawn loop."""

    @pytest.mark.parametrize("frame", [
        [1, 2],
        {"type": "work", "id": 0, "task": [1]},
        {"type": "work", "id": 0, "task": 7},
        {"type": "work", "id": "0", "task": {"codec": "spec"}},
        {"type": "work", "tasks": [7]},
    ], ids=["list-frame", "list-task", "int-task", "str-id", "no-task"])
    def test_bad_work_frame_ends_the_slot(self, frame):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10.0)
            host, port = listener.getsockname()[:2]
            worker, codes = _drive(run_worker, host, port)
            conn, __ = listener.accept()
            with conn:
                assert recv_frame(conn)["type"] == "hello"
                send_frame(conn, frame)
                worker.join(timeout=10.0)
                assert not worker.is_alive(), "worker ignored the frame"
        assert codes == [0]
