"""Cluster backend mechanics and the distributed bit-identity claim.

Workers here are in-process threads running :func:`run_worker` — the
full TCP protocol (hello, leases, heartbeats, results, shutdown) over
loopback, without process-spawn latency.  Process-level worker death is
covered by ``tests/faults/test_cluster_recovery.py``.
"""

import json
import threading

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
from repro.runtime.wire import outcome_to_wire


def _square(x):
    return x * x


def _raise(x):
    raise RuntimeError(f"worker boom on {x}")


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
        with ClusterBackend() as backend:
            __, codes = _thread_workers(backend, 2)
            assert backend.worker_count == 2
            assert backend.jobs == 2
            result = backend.map(_square, list(range(12)))
            assert result == [x * x for x in range(12)]
        # close() sends shutdown frames; both workers exit cleanly.
        for __ in range(100):
            if len(codes) == 2:
                break
            threading.Event().wait(0.05)
        assert codes == [0, 0]

    def test_empty_map_needs_no_workers(self):
        with ClusterBackend() as backend:
            assert backend.map(_square, []) == []

    def test_worker_error_propagates(self):
        with ClusterBackend() as backend:
            _thread_workers(backend, 1)
            with pytest.raises(WorkerTaskError, match="boom"):
                backend.map(_raise, [1, 2])

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
                backend.map(_square, [1])


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
            assert backend.map(_square, [4]) == [16]
        assert first == second

    def test_block_builder_specs_identical(self):
        # The pickle task codec path: a spec carrying a built block has no
        # JSON wire form, so it ships to the workers by value.
        from repro.netlist import current_mirror
        from repro.runtime.spec import execute_run
        from repro.runtime.wire import CODEC_PICKLE, encode_task

        block = current_mirror()
        specs = [
            RunSpec(key=("block", seed), builder=block, placer="ql",
                    seed=seed, max_steps=20, target_from_symmetric=True)
            for seed in (1, 2, 3)
        ]
        assert all(encode_task(execute_run, spec)["codec"] == CODEC_PICKLE
                   for spec in specs)
        serial = self._canon(map_runs(specs, SerialBackend()))
        with ClusterBackend() as backend:
            _thread_workers(backend, 2)
            clustered = self._canon(map_runs(specs, backend))
        assert serial == clustered
