"""The circuit registry: circuits named as plain data.

A circuit is named in one of two plain-data forms, and nothing else:

* a **library key** — one of :data:`BUILDERS`, the paper's five
  evaluation blocks, built by calling the library function (with
  keyword arguments such as ``units_per_device`` where a caller needs
  them);
* a :class:`SpiceDeck` — deck text plus the keywords that turn it into
  a placeable block (parse → primitive/group detection → auto-sized
  canvas), which is what lets a request carry a circuit the library has
  never seen.

:class:`CircuitRegistry` maps names to those forms.  The CLI's
``choices=`` lists, the spec validation and the service's ``/place``
requests all resolve circuit names here, and because every registered
value is plain data, any registered circuit ships by value to a
process-pool or cluster worker, which builds it with
:func:`build_circuit`.  The default registry holds the library keys;
:func:`repro.service.corpus.corpus_registry` adds the bundled decks
(see ``examples/custom_circuit.py`` for how a block is built by hand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

from repro.netlist.library import (
    AnalogBlock,
    comparator,
    current_mirror,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_ota,
)

#: Measurement-suite kinds an inline deck may request.
BLOCK_KINDS = ("cm", "comp", "ota")

#: The library builders a circuit key names: the paper's five evaluation
#: blocks, in the canonical report order.
BUILDERS: Mapping[str, Callable[..., AnalogBlock]] = MappingProxyType({
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota5t": five_transistor_ota,
    "ota2s": two_stage_ota,
})


@dataclass(frozen=True)
class SpiceDeck:
    """A circuit as an inline SPICE deck: the text plus how to build it.

    The fields are the ones a :class:`~repro.service.requests.
    PlacementRequest` carries as ``spice_*`` and a corpus deck carries
    in its ``*#`` header, so either converts to a deck without loss.

    Attributes:
        text: the SPICE deck (element lines, ``.model`` cards, and
            optional ``.subckt`` hierarchy).
        kind: measurement suite to run (one of :data:`BLOCK_KINDS`);
            the deck's testbench sources must match what the suite
            expects (see the library builders for examples).
        name: block display name.
        canvas: explicit ``(cols, rows)`` grid, or ``None`` to
            auto-size.
        params: measurement parameters forwarded to the suite.
        input_nets: signal inputs, for signal-flow ordering.
        output_nets: signal outputs.
    """

    text: str
    kind: str = "cm"
    name: str = "imported"
    canvas: tuple[int, int] | None = None
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)
    input_nets: tuple[str, ...] = ()
    output_nets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in BLOCK_KINDS:
            raise ValueError(
                f"kind must be one of {BLOCK_KINDS}, got {self.kind!r}"
            )
        if self.canvas is not None:
            object.__setattr__(self, "canvas", tuple(self.canvas))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "input_nets", tuple(self.input_nets))
        object.__setattr__(self, "output_nets", tuple(self.output_nets))

    def build(self) -> AnalogBlock:
        """Build the placeable block this deck describes.

        The deck runs the full staged ingestion pipeline
        (:func:`repro.netlist.constraints.ingest_deck`: parse → hierarchy →
        constraint extraction → validation); the build is refused when
        the :class:`~repro.netlist.constraints.ConstraintReport` carries
        errors.  Unless given, the canvas is sized to a square with ~2x
        slack over the unit count, the same occupancy regime the library
        blocks use.

        Raises:
            ConstraintValidationError: the deck failed constraint
                validation (partition/pair/rail errors).
        """
        from repro.netlist.constraints import ingest_deck

        result = ingest_deck(self.text, name=self.name, kind=self.kind,
                             params=dict(self.params))
        result.report.raise_if_errors()
        constraints = result.constraints
        if not constraints.groups:
            raise ValueError(
                "deck has no placeable primitive groups (no MOSFETs?)"
            )
        circuit = result.circuit
        canvas = self.canvas
        if canvas is None:
            side = max(2, math.ceil(math.sqrt(2 * circuit.total_units())))
            canvas = (side, side)
        return AnalogBlock(
            name=self.name,
            kind=self.kind,
            circuit=circuit,
            groups=constraints.groups,
            pairs=constraints.pairs,
            canvas=canvas,
            params=dict(self.params),
            input_nets=self.input_nets,
            output_nets=self.output_nets,
            super_groups=constraints.super_groups,
        )


def build_circuit(circuit: str | SpiceDeck, **kwargs: Any) -> AnalogBlock:
    """Materialise a circuit named as data.

    A library key calls its :data:`BUILDERS` function with ``kwargs``;
    a deck takes none.
    """
    if isinstance(circuit, SpiceDeck):
        return circuit.build(**kwargs)
    return BUILDERS[circuit](**kwargs)


def check_circuit(circuit: Any) -> None:
    """Refuse anything but a :data:`BUILDERS` key or a :class:`SpiceDeck`."""
    if isinstance(circuit, SpiceDeck):
        return
    if not isinstance(circuit, str):
        raise TypeError(
            "a circuit is a BUILDERS key or a SpiceDeck, got "
            f"{type(circuit).__name__!r}"
        )
    if circuit not in BUILDERS:
        raise ValueError(
            f"unknown builder {circuit!r}; have {sorted(BUILDERS)}"
        )


class CircuitRegistry:
    """Circuit names mapped to circuits as data.

    Args:
        circuits: initial ``name -> circuit`` mapping; each value is a
            :data:`BUILDERS` key or a :class:`SpiceDeck`.
    """

    def __init__(self, circuits: Mapping[str, str | SpiceDeck] | None = None):
        self._circuits: dict[str, str | SpiceDeck] = {}
        for key, circuit in (circuits or {}).items():
            self.register(key, circuit)

    def register(self, key: str, circuit: str | SpiceDeck) -> None:
        """Add (or replace) a named circuit."""
        if not key or not isinstance(key, str):
            raise ValueError(f"circuit key must be a non-empty string, got {key!r}")
        check_circuit(circuit)
        self._circuits[key] = circuit

    def keys(self) -> tuple[str, ...]:
        """Registered circuit keys, in registration order."""
        return tuple(self._circuits)

    def __getitem__(self, key: str) -> str | SpiceDeck:
        """The circuit registered under ``key``, as data."""
        if key not in self._circuits:
            raise KeyError(
                f"unknown circuit {key!r}; registered: {sorted(self._circuits)}"
            )
        return self._circuits[key]

    def build(self, key: str) -> AnalogBlock:
        """Materialise the block registered under ``key``."""
        return build_circuit(self[key])

    def __contains__(self, key: object) -> bool:
        return key in self._circuits

    def __iter__(self) -> Iterator[str]:
        return iter(self._circuits)

    def __len__(self) -> int:
        return len(self._circuits)


#: The library keys, each naming itself.
_DEFAULT = CircuitRegistry({key: key for key in BUILDERS})


def default_registry() -> CircuitRegistry:
    """The process-wide shared registry (CLI, specs and service use it)."""
    return _DEFAULT
