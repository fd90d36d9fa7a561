"""The unified placement service: one API over every entry point.

Layers (bottom-up):

* :mod:`repro.service.registry` — the shared circuit registry: circuit
  names mapped to circuits as data (a library key or a
  :class:`SpiceDeck`), behind the CLI's circuit choices, ``RunSpec``
  builders and inline-SPICE requests;
* :mod:`repro.service.requests` — typed, versioned, JSON-serializable
  :class:`PlacementRequest` / :class:`TrainRequest` /
  :class:`PlacementResult` schemas;
* :mod:`repro.service.policies` — the named/versioned Q-table snapshot
  store (warm starts in, trained masters out, pruned on save);
* :mod:`repro.service.journal` — the append-only on-disk job journal
  (crash recovery for served work);
* :mod:`repro.service.jobs` — the async submit/status/result/cancel job
  manager over any :class:`ExecutionBackend`, with journaling,
  backpressure (:class:`QueueFullError` → HTTP 429) and request dedup;
* :mod:`repro.service.service` — the :class:`PlacementService` facade
  tying them together;
* :mod:`repro.service.http` — the stdlib HTTP JSON layer
  (``repro serve``).

Import note: the registry and request schemas are imported eagerly (the
runtime layer depends on them); the facade/HTTP layers — which depend
*on* the runtime — load lazily via module ``__getattr__`` so the package
stays cycle-free.
"""

from repro.service.registry import (
    BLOCK_KINDS,
    CircuitRegistry,
    SpiceDeck,
    default_registry,
)
from repro.service.requests import (
    PLACER_KINDS,
    SCHEMA_VERSION,
    PlacementRequest,
    PlacementResult,
    TrainRequest,
    canonical_request_hash,
    canonical_request_json,
    metrics_from_dict,
    metrics_to_dict,
    placement_from_dict,
    placement_to_dict,
)

#: Lazily-resolved exports → defining module (PEP 562).
_LAZY = {
    "PolicyInfo": "repro.service.policies",
    "PolicyStore": "repro.service.policies",
    "JobJournal": "repro.service.journal",
    "ReplayedJob": "repro.service.journal",
    "replay_journal": "repro.service.journal",
    "JobManager": "repro.service.jobs",
    "JobRecord": "repro.service.jobs",
    "QueueFullError": "repro.service.jobs",
    "RecoveryReport": "repro.service.jobs",
    "PlacementService": "repro.service.service",
    "PlacementHTTPServer": "repro.service.http",
    "make_server": "repro.service.http",
    "serve": "repro.service.http",
}

__all__ = [
    "BLOCK_KINDS",
    "CircuitRegistry",
    "JobJournal",
    "JobManager",
    "JobRecord",
    "PLACER_KINDS",
    "PlacementHTTPServer",
    "PlacementRequest",
    "PlacementResult",
    "PlacementService",
    "PolicyInfo",
    "PolicyStore",
    "QueueFullError",
    "RecoveryReport",
    "ReplayedJob",
    "SCHEMA_VERSION",
    "SpiceDeck",
    "TrainRequest",
    "canonical_request_hash",
    "canonical_request_json",
    "default_registry",
    "make_server",
    "metrics_from_dict",
    "metrics_to_dict",
    "placement_from_dict",
    "placement_to_dict",
    "replay_journal",
    "serve",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
