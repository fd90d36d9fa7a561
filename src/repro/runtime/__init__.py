"""Parallel execution runtime — the seam every fan-out goes through.

Drivers describe independent work as lightweight picklable specs and a
backend decides where it runs: in-process (:class:`SerialBackend`),
across worker processes (:class:`ProcessPoolBackend`, the ``--jobs N``
flag), or across machines (:class:`ClusterBackend`, the
``--backend cluster:host:port`` flag, fed by ``repro worker`` daemons).
Backends preserve item order and every payload crosses the wire through
exact codecs, so serial, pool and cluster runs are result-identical.
:func:`make_backend` is the one factory every entrypoint shares.

Import note: the cluster layer (sockets, threads, the wire codecs) loads
lazily via module ``__getattr__``, so a serial or pool run never
imports it.
"""

from repro.runtime.backend import (
    AttemptResult,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    WorkerTaskError,
    make_backend,
    resolve_backend,
)
from repro.runtime.faults import (
    Fault,
    FaultPlan,
    InjectedFault,
    JournalCrash,
    JournalFault,
    WorkerKilled,
)
from repro.runtime.resilience import (
    FailedRun,
    RetryPolicy,
    RunReport,
    resilient_map_runs,
)
from repro.runtime.spec import (
    BUILDERS,
    RunOutcome,
    RunSpec,
    build_block,
    execute_run,
    map_runs,
    outcomes_by_key,
    symmetric_target,
)

#: Lazily-resolved exports → defining module (PEP 562).
_LAZY = {
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
