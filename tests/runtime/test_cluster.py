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
from repro.runtime.wire import outcome_to_wire, recv_frame, send_frame
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
            result = backend.map(execute_run, specs)
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
            assert backend.map(execute_run, []) == []

    def test_worker_error_propagates(self):
        failing = _small(2, builder_kwargs=(("boom", 1),))
        with ClusterBackend() as backend:
            _thread_workers(backend, 1)
            with pytest.raises(WorkerTaskError, match="boom"):
                backend.map(execute_run, [_small(1), failing])

    def test_other_work_refused_before_sending(self):
        # No worker is connected: the refusal cannot wait for one.
        with ClusterBackend(start_timeout_s=0.3) as backend:
            with pytest.raises(TypeError, match="cluster workers run only"):
                backend.map(outcome_to_wire, [_small(1)])
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
                backend.map(execute_run, [_small(1)])


class TestClusterBitIdentity:
    """The acceptance rail: serial ≡ pool ≡ cluster, byte for byte."""

    def _specs(self):
        return [
            RunSpec(key=("QL", seed), builder="cm", placer="ql",
                    seed=seed, max_steps=20, target_from_symmetric=True)
            for seed in (1, 2, 3)
        ]

    @staticmethod
    def _canon(outcomes):
        return [
            json.dumps(outcome_to_wire(o), sort_keys=True)
            for o in outcomes
        ]

    def test_serial_pool_cluster_identical_payloads(self):
        serial = self._canon(map_runs(self._specs(), SerialBackend()))
        pooled = self._canon(
            map_runs(self._specs(), ProcessPoolBackend(jobs=2)))
        with ClusterBackend() as backend:
            _thread_workers(backend, 2)
            clustered = self._canon(map_runs(self._specs(), backend))
        assert serial == pooled
        assert serial == clustered

    def test_reuse_across_waves(self):
        # One backend, several map calls: leases/slots must reset.
        with ClusterBackend() as backend:
            _thread_workers(backend, 2)
            first = self._canon(map_runs(self._specs(), backend))
            second = self._canon(map_runs(self._specs(), backend))
            (single,) = backend.map(execute_run, [_small(4)])
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
        serial = self._canon(map_runs(specs, SerialBackend()))
        pooled = self._canon(map_runs(specs, ProcessPoolBackend(jobs=2)))
        with ClusterBackend() as backend:
            _thread_workers(backend, 2)
            clustered = self._canon(map_runs(specs, backend))
        assert serial == pooled
        assert serial == clustered


def _fake_peer(backend):
    """A raw socket registered as one worker slot of ``backend``."""
    sock = socket.create_connection(backend.address, timeout=10.0)
    send_frame(sock, {"type": "hello", "name": "fake", "pid": 0})
    assert backend.wait_for_workers(1, timeout_s=10.0) == 1
    return sock


def _answer_lease(backend, reply):
    """Lease one spec to a fake peer, let ``reply(task)`` answer it, and
    return what ``map_attempts`` settled.  The driver thread is joined
    with a timeout, so a coordinator that hangs fails the test."""
    results = []
    peer = _fake_peer(backend)
    try:
        driver = threading.Thread(
            target=lambda: results.append(
                backend.map_attempts(execute_run, [_small("lease")])),
            daemon=True,
        )
        driver.start()
        work = recv_frame(peer)
        assert work["type"] == "work"
        (task,) = work["tasks"]
        send_frame(peer, reply(task))
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
        lambda task: [1, 2],
        lambda task: {"type": "result", "id": [task["id"]], "status": "ok"},
        lambda task: {"type": "result", "id": True, "status": "ok"},
        lambda task: {"type": "result", "id": task["id"] + 7,
                      "status": "ok"},
        lambda task: {"type": "result", "id": task["id"],
                      "status": "error", "error": ["x"]},
    ], ids=["list-frame", "list-id", "bool-id", "unknown-id",
            "list-error"])
    def test_malformed_frame_is_a_dead_slot(self, reply):
        with ClusterBackend(heartbeat_timeout_s=2.0) as backend:
            attempt, deaths = _answer_lease(backend, reply)
            assert attempt.status == ATTEMPT_KILLED
            assert deaths == 1
            assert backend.worker_count == 0

    def test_pickle_codec_result_is_never_unpickled(self, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("unpickled a peer's bytes")

        monkeypatch.setattr(pickle, "loads", refuse)
        payload = base64.b64encode(pickle.dumps({"x": 1})).decode("ascii")
        with ClusterBackend(heartbeat_timeout_s=2.0) as backend:
            attempt, __ = _answer_lease(backend, lambda task: {
                "type": "result", "id": task["id"], "status": "ok",
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
