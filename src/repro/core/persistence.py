"""Q-table serialization — policy snapshots for training and serving.

States and actions are hashable trees of ints/strings/tuples, so they
serialise exactly through ``repr`` and parse back with
:func:`ast.literal_eval` (no pickle, no code execution); numpy scalars
that leak into states or actions through batched evaluation arrays are
coerced to plain Python first, because their reprs (``np.int64(3)``)
would not parse back.

A snapshot is an ``export_tables()`` mapping (agent address → Q-table):
:func:`save_tables_snapshot` / :func:`load_tables_snapshot` persist it
with JSON-able metadata beside it.  The island-training driver
checkpoints its master policy through them, and the policy store
versions its snapshots through :func:`tables_snapshot_payload`.

Each Q-table entry serialises as a ``[value, visits]`` pair (payload
version 3), carrying the per-entry visit counts behind the ``"visits"``
merge rule and :meth:`QTable.prune`.  Version-2 entries, bare floats,
still load (their visits load as 0).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.qlearning import QTable

#: Payload schema version written by :func:`save_tables_snapshot`.
PAYLOAD_VERSION = 3


def _plain(obj: Any) -> Any:
    """Recursively coerce numpy scalars so ``repr`` output stays
    ``ast.literal_eval``-parseable."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.str_):
        return str(obj)
    if isinstance(obj, tuple):
        return tuple(_plain(v) for v in obj)
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def qtable_to_dict(table: QTable) -> dict[str, dict[str, list]]:
    """JSON-compatible representation of a Q-table.

    Each entry serialises as a ``[value, visits]`` pair (version 3).
    """
    out: dict[str, dict[str, list]] = {}
    for state, action, value, visits in table.entries():
        out.setdefault(repr(_plain(state)), {})[repr(_plain(action))] = [
            value, visits,
        ]
    return out


def qtable_from_dict(data: dict[str, dict]) -> QTable:
    """Rebuild a Q-table from :func:`qtable_to_dict` output.

    Accepts both the version-3 ``[value, visits]`` pairs and the bare
    floats of version-2 payloads (whose visits load as 0).
    """
    table = QTable()
    for state_repr, actions in data.items():
        state = ast.literal_eval(state_repr)
        for action_repr, entry in actions.items():
            action = ast.literal_eval(action_repr)
            if isinstance(entry, (list, tuple)):
                value, visits = entry
                table.set(state, action, float(value), visits=int(visits))
            else:
                table.set(state, action, float(entry))
    return table


# --------------------------------------------------------------- snapshots


def tables_to_payload(tables: dict[tuple, QTable]) -> dict[str, dict]:
    """JSON-compatible form of an ``export_tables()`` snapshot.

    Agent addresses (tuples like ``("bottom", "input_pair")``) serialise
    through ``repr`` exactly like states and actions do.
    """
    return {repr(_plain(key)): qtable_to_dict(table)
            for key, table in tables.items()}


def tables_from_payload(payload: dict[str, dict]) -> dict[tuple, QTable]:
    """Rebuild an ``export_tables()`` snapshot from its payload form."""
    return {
        ast.literal_eval(key_repr): qtable_from_dict(data)
        for key_repr, data in payload.items()
    }


def tables_snapshot_payload(
    tables: dict[tuple, QTable], **meta: Any
) -> dict:
    """The JSON-compatible document :func:`save_tables_snapshot` writes.

    Exposed so callers with their own write discipline (e.g. the policy
    store's exclusive-create versioning) produce the same format.
    """
    return {
        "version": PAYLOAD_VERSION,
        "tables": tables_to_payload(tables),
        "meta": dict(meta),
    }


def save_tables_snapshot(
    tables: dict[tuple, QTable], path: str | Path, **meta: Any
) -> None:
    """Write a tables snapshot (plus JSON-able metadata) to disk.

    The island-training driver checkpoints its master policy each round
    through this; ``meta`` lands beside the tables (round index, merge
    rule, best cost, ...).
    """
    Path(path).write_text(json.dumps(tables_snapshot_payload(tables, **meta)))


def load_tables_snapshot(
    path: str | Path,
) -> tuple[dict[tuple, QTable], dict]:
    """Read back a :func:`save_tables_snapshot` file → (tables, meta)."""
    payload = json.loads(Path(path).read_text())
    return tables_from_payload(payload["tables"]), dict(payload.get("meta", {}))
