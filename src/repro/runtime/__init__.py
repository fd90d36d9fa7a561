"""Parallel execution runtime — the seam every fan-out goes through.

Drivers describe independent work as lightweight plain-data specs and a
backend decides where it runs: in-process (:class:`SerialBackend`),
across worker processes (:class:`ProcessPoolBackend`, the ``--jobs N``
flag), or across machines (:class:`ClusterBackend`, the
``--backend cluster:host:port`` flag, fed by ``repro worker`` daemons).
Backends preserve item order and every payload crosses the wire through
exact codecs, so serial, pool and cluster runs are result-identical.
:func:`make_backend` is the one factory every entrypoint shares.
"""

#: Export → defining module (PEP 562): exports load on first access, so
#: a serial run loads neither the retry layer, the
#: fault-injection plans nor the cluster (sockets, threads, wire codecs).
_LAZY = {
    "AttemptResult": "repro.runtime.backend",
    "ExecutionBackend": "repro.runtime.backend",
    "ProcessPoolBackend": "repro.runtime.backend",
    "SerialBackend": "repro.runtime.backend",
    "WorkerTaskError": "repro.runtime.backend",
    "make_backend": "repro.runtime.backend",
    "resolve_backend": "repro.runtime.backend",
    "Fault": "repro.runtime.faults",
    "FaultPlan": "repro.runtime.faults",
    "InjectedFault": "repro.runtime.faults",
    "JournalCrash": "repro.runtime.faults",
    "JournalFault": "repro.runtime.faults",
    "WorkerKilled": "repro.runtime.faults",
    "FailedRun": "repro.runtime.resilience",
    "RetryPolicy": "repro.runtime.resilience",
    "RunReport": "repro.runtime.resilience",
    "resilient_map_runs": "repro.runtime.resilience",
    "BUILDERS": "repro.service.registry",
    "RunOutcome": "repro.runtime.spec",
    "RunSpec": "repro.runtime.spec",
    "build_block": "repro.runtime.spec",
    "execute_run": "repro.runtime.spec",
    "map_runs": "repro.runtime.spec",
    "outcomes_by_key": "repro.runtime.spec",
    "symmetric_target": "repro.runtime.spec",
    "ClusterBackend": "repro.runtime.cluster",
    "run_worker": "repro.runtime.cluster",
    "worker_main": "repro.runtime.cluster",
}

__all__ = [
    "BUILDERS",
    "AttemptResult",
    "ClusterBackend",
    "ExecutionBackend",
    "FailedRun",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "JournalCrash",
    "JournalFault",
    "ProcessPoolBackend",
    "RetryPolicy",
    "RunOutcome",
    "RunReport",
    "RunSpec",
    "SerialBackend",
    "WorkerKilled",
    "WorkerTaskError",
    "build_block",
    "execute_run",
    "make_backend",
    "map_runs",
    "outcomes_by_key",
    "resilient_map_runs",
    "resolve_backend",
    "run_worker",
    "symmetric_target",
    "worker_main",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
