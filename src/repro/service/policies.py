"""The policy store: named, versioned Q-table snapshots on disk.

Training campaigns produce master policies (``export_tables()``-style
``agent address -> QTable`` snapshots); placement requests warm-start
from them.  The store gives those snapshots stable names:

* ``save("ota2s-base", tables)`` writes version 1, the next save of the
  same name writes version 2, ... — nothing is ever overwritten;
* ``load("ota2s-base")`` reads the latest version, ``load("ota2s-base@1")``
  pins one;
* every save runs :meth:`QTable.prune` first (thresholds are caller
  knobs, defaults keep everything), so long campaigns stop bloating
  snapshot payloads.

Files are the :func:`repro.core.persistence.save_tables_snapshot` JSON
format under ``root/<name>/v<NNNN>.json`` — readable back by the
persistence layer alone, no store required.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.qlearning import PruneStats, QTable

#: Policy names are path components; keep them boring and portable.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_VERSION_RE = re.compile(r"^v(\d{4,})\.json$")


@dataclass(frozen=True)
class PolicyInfo:
    """One stored policy version, as listed by :meth:`PolicyStore.list`."""

    name: str
    version: int
    entries: int
    meta: dict

    @property
    def ref(self) -> str:
        """The ``name@version`` reference that loads exactly this file."""
        return f"{self.name}@{self.version}"


class PolicyStore:
    """Directory-backed store of named, versioned policy snapshots.

    Args:
        root: storage directory; created lazily on the first save, so a
            store pointed at a non-existent path is cheap until used.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------ plumbing

    def _dir(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"bad policy name {name!r}; use letters, digits, '.', '_', '-'"
            )
        return self.root / name

    def versions(self, name: str) -> list[int]:
        """Stored versions of one policy name, ascending ([] if none)."""
        folder = self._dir(name)
        if not folder.is_dir():
            return []
        found = []
        for path in folder.iterdir():
            match = _VERSION_RE.match(path.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def resolve(self, ref: str) -> tuple[str, int, Path]:
        """``"name"`` (latest) or ``"name@N"`` → (name, version, path).

        Raises:
            KeyError: unknown policy name or version.
        """
        name, sep, version_text = ref.partition("@")
        versions = self.versions(name)
        if not versions:
            raise KeyError(f"no stored policy named {name!r}")
        if sep:
            try:
                version = int(version_text)
            except ValueError:
                raise KeyError(
                    f"bad policy version {version_text!r} in {ref!r}; "
                    f"use '{name}' (latest) or '{name}@N'"
                ) from None
            if version not in versions:
                raise KeyError(
                    f"policy {name!r} has no version {version}; "
                    f"stored: {versions}"
                )
        else:
            version = versions[-1]
        return name, version, self._dir(name) / f"v{version:04d}.json"

    # -------------------------------------------------------------- public

    def save(
        self,
        name: str,
        tables: dict[tuple, QTable],
        *,
        prune_min_visits: int = 0,
        prune_min_abs_q: float = 0.0,
        **meta: Any,
    ) -> str:
        """Store a snapshot as the next version of ``name``; returns its ref.

        The caller's tables are never mutated: pruning (always invoked —
        Q-table compaction before every snapshot) runs on copies.
        """
        from repro.core.persistence import tables_snapshot_payload

        pruned: dict[tuple, QTable] = {}
        stats = PruneStats()
        for key, table in tables.items():
            dup = table.copy()
            table_stats = dup.prune(
                min_visits=prune_min_visits, min_abs_q=prune_min_abs_q
            )
            stats.kept += table_stats.kept
            stats.dropped += table_stats.dropped
            if dup.n_entries:
                pruned[key] = dup
        folder = self._dir(name)
        folder.mkdir(parents=True, exist_ok=True)
        version = (self.versions(name) or [0])[-1] + 1
        while True:
            # Exclusive create: two concurrent saves of one name (two
            # job-manager workers, two CLI processes on a shared
            # --policy-dir) must get distinct versions, never clobber.
            payload = tables_snapshot_payload(
                pruned,
                name=name,
                version=version,
                pruned_kept=stats.kept,
                pruned_dropped=stats.dropped,
                **meta,
            )
            try:
                with open(folder / f"v{version:04d}.json", "x",
                          encoding="utf-8") as handle:
                    json.dump(payload, handle)
            except FileExistsError:
                version += 1
                continue
            # Sidecar meta file: everything list() surfaces (including
            # the zoo signature map) without touching table payloads.
            (folder / f"v{version:04d}.meta.json").write_text(json.dumps({
                "name": name,
                "version": version,
                "entries": stats.kept,
                "meta": payload["meta"],
            }))
            return f"{name}@{version}"

    def load(self, ref: str) -> tuple[dict[tuple, QTable], dict]:
        """Read a policy back → ``(tables, meta)``.

        Raises:
            KeyError: unknown name/version.
        """
        from repro.core.persistence import load_tables_snapshot

        __, __, path = self.resolve(ref)
        return load_tables_snapshot(path)

    def list(self) -> list[PolicyInfo]:
        """Every stored version of every policy, name-then-version order.

        Snapshots are *not* rebuilt into live Q-tables (no per-entry
        ``literal_eval``) and — for anything :meth:`save` wrote — the
        table payloads are not even read: each save leaves a sidecar
        ``vNNNN.meta.json`` carrying the full metadata (including the
        zoo signature map the :class:`~repro.zoo.index.ZooIndex` scans),
        so listing a large store stays cheap.  Snapshots from other
        writers (no sidecar) fall back to reading the payload, with the
        entry count taken from the ``pruned_kept`` stamp when present.
        """
        if not self.root.is_dir():
            return []
        out = []
        for folder in sorted(self.root.iterdir()):
            if not folder.is_dir() or not _NAME_RE.match(folder.name):
                continue
            for version in self.versions(folder.name):
                sidecar = folder / f"v{version:04d}.meta.json"
                if sidecar.is_file():
                    summary = json.loads(sidecar.read_text())
                    out.append(PolicyInfo(
                        name=folder.name,
                        version=version,
                        entries=int(summary.get("entries", 0)),
                        meta=dict(summary.get("meta", {})),
                    ))
                    continue
                payload = json.loads(
                    (folder / f"v{version:04d}.json").read_text()
                )
                meta = dict(payload.get("meta", {}))
                entries = meta.get("pruned_kept")
                if entries is None:
                    entries = sum(
                        len(actions)
                        for table in payload.get("tables", {}).values()
                        for actions in table.values()
                    )
                out.append(PolicyInfo(
                    name=folder.name,
                    version=version,
                    entries=int(entries),
                    meta=meta,
                ))
        return out
