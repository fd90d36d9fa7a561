"""The bundled SPICE corpus: discovery, registration, bulk checking.

``corpus/`` at the repository root holds self-describing level-1 SPICE
decks — each deck carries a ``*#`` metadata header naming its measurement
kind, signal nets, canvas, suite parameters, and hand-labeled groups::

    * five-transistor OTA, wide input pair
    *# kind: ota
    *# inputs: vip vin
    *# outputs: outp
    *# canvas: 8x8
    *# params: {"vdd": 1.1, "vcm": 0.6}
    *# groups: tail:mtail input_pair:m1,m2 pload:mp1,mp2

The header rides inside ordinary SPICE comments, so any simulator (and the
repo's own parser) reads the deck unchanged.  Every deck flows through the
staged ingestion pipeline (:func:`repro.netlist.constraints.ingest_deck`);
:func:`corpus_registry` registers each one as a named circuit so
``repro place``/``repro train`` and the HTTP ``/place`` path work on corpus
entries exactly like library blocks.  The hand labels exist for the
detection precision/recall benchmark — extraction never reads them.

A registered entry is its :class:`~repro.service.registry.SpiceDeck`: the
deck text plus the header's build keywords, read once when the registry
is made.  Specs carry that deck by value, so a process-pool or cluster
worker ingests the same text without reading the corpus directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.netlist.library import AnalogBlock
from repro.service.registry import CircuitRegistry, SpiceDeck, default_registry

if TYPE_CHECKING:
    # Listing the corpus (every ``place``/``train`` argument parser does)
    # reads headers only; the ingestion pipeline loads with the first deck.
    from repro.netlist.constraints import ConstraintReport

#: Environment override for the corpus location (tests, deployments).
ENV_CORPUS_DIR = "REPRO_CORPUS_DIR"

_HEADER_PREFIX = "*#"


def corpus_dir() -> Path:
    """Where the bundled decks live.

    ``$REPRO_CORPUS_DIR`` wins when set; the default is the ``corpus/``
    directory at the repository root (resolved relative to this package,
    so it works from any working directory).
    """
    override = os.environ.get(ENV_CORPUS_DIR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "corpus"


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus deck: its path plus the parsed ``*#`` header.

    Attributes:
        name: registry key (the file stem).
        path: deck location, as a string.
        kind: measurement-suite selector from the header.
        params: suite parameters from the header's ``params:`` JSON.
        canvas: explicit grid from ``canvas: CxR``, or ``None``.
        input_nets / output_nets: signal nets from the header.
        labels: hand-labeled groups, ``(label, device names)`` in header
            order — benchmark ground truth, never fed to extraction.
    """

    name: str
    path: str
    kind: str = "cm"
    params: dict = field(default_factory=dict)
    canvas: tuple[int, int] | None = None
    input_nets: tuple[str, ...] = ()
    output_nets: tuple[str, ...] = ()
    labels: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def text(self) -> str:
        return Path(self.path).read_text()

    def deck(self) -> SpiceDeck:
        """The entry as a circuit: its text plus the header's build keywords."""
        return SpiceDeck(
            self.text(),
            kind=self.kind,
            name=self.name,
            canvas=self.canvas,
            params=self.params,
            input_nets=self.input_nets,
            output_nets=self.output_nets,
        )


class CorpusFormatError(ValueError):
    """A corpus deck's ``*#`` header could not be parsed."""


def _parse_header(name: str, text: str) -> dict:
    fields: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith(_HEADER_PREFIX):
            continue
        body = line[len(_HEADER_PREFIX):].strip()
        key, sep, value = body.partition(":")
        if not sep:
            raise CorpusFormatError(f"{name}: bad header line {raw!r}")
        key, value = key.strip(), value.strip()
        if key == "kind":
            fields["kind"] = value
        elif key == "inputs":
            fields["input_nets"] = tuple(value.split())
        elif key == "outputs":
            fields["output_nets"] = tuple(value.split())
        elif key == "canvas":
            cols, sep, rows = value.partition("x")
            if not sep:
                raise CorpusFormatError(f"{name}: bad canvas {value!r}")
            fields["canvas"] = (int(cols), int(rows))
        elif key == "params":
            try:
                fields["params"] = json.loads(value)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{name}: bad params JSON: {exc}") from exc
        elif key == "groups":
            labels = []
            for token in value.split():
                label, sep, members = token.partition(":")
                if not sep or not members:
                    raise CorpusFormatError(f"{name}: bad group label {token!r}")
                labels.append((label, tuple(members.split(","))))
            fields["labels"] = tuple(labels)
        else:
            raise CorpusFormatError(f"{name}: unknown header key {key!r}")
    return fields


def load_entry(path: str | Path) -> CorpusEntry:
    """Parse one deck file's header into a :class:`CorpusEntry`."""
    path = Path(path)
    return CorpusEntry(name=path.stem, path=str(path),
                       **_parse_header(path.stem, path.read_text()))


def list_corpus(directory: str | Path | None = None) -> tuple[CorpusEntry, ...]:
    """All corpus entries, sorted by name (empty when the dir is absent)."""
    root = Path(directory) if directory is not None else corpus_dir()
    if not root.is_dir():
        return ()
    return tuple(load_entry(p) for p in sorted(root.glob("*.sp")))


def build_entry(entry: CorpusEntry) -> AnalogBlock:
    """Run one entry through the pipeline into a placeable block."""
    return entry.deck().build()


def corpus_registry(directory: str | Path | None = None) -> CircuitRegistry:
    """A registry holding the builtins plus every corpus entry's deck.

    Always a *new* registry: the process-wide default stays exactly the
    five builtins (``/circuits`` on a non-corpus server is stable), and
    services opt in via ``PlacementService(registry=corpus_registry())``.
    """
    registry = CircuitRegistry(dict(default_registry()))
    for entry in list_corpus(directory):
        registry.register(entry.name, entry.deck())
    return registry


@dataclass(frozen=True)
class CorpusCheck:
    """Outcome of checking one deck: the report plus any build failure."""

    entry: CorpusEntry
    report: ConstraintReport
    build_error: str | None = None

    @property
    def ok(self) -> bool:
        return self.report.ok and self.build_error is None


def check_corpus(directory: str | Path | None = None) -> tuple[CorpusCheck, ...]:
    """Run every bundled deck through the pipeline and collect reports.

    Each deck is ingested (parse → hierarchy → extract → validate) and
    then actually registered into a block, so canvas-capacity and
    block-construction failures surface too — this is what the CI
    corpus-check step gates on.
    """
    from repro.netlist.constraints import ingest_deck

    checks = []
    for entry in list_corpus(directory):
        result = ingest_deck(entry.text(), name=entry.name, kind=entry.kind,
                             params=entry.params)
        build_error = None
        try:
            build_entry(entry)
        except Exception as exc:  # noqa: BLE001 — reported, not swallowed
            build_error = f"{type(exc).__name__}: {exc}"
        checks.append(CorpusCheck(entry=entry, report=result.report,
                                  build_error=build_error))
    return tuple(checks)
