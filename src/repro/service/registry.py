"""The circuit registry: one named-builder table for the whole stack.

Before the service layer existed the circuit table lived twice — as
``CIRCUITS`` in :mod:`repro.cli` and as ``BUILDERS`` in
:mod:`repro.runtime.spec` — and inline circuits (a SPICE deck in a
request) had no entry point at all.  The registry is the single source
all of them now share:

* the CLI's ``choices=`` lists, the spec validation and the service's
  ``/place`` requests all resolve circuit keys here;
* :meth:`CircuitRegistry.block_from_spice` turns an inline SPICE deck
  into a full :class:`AnalogBlock` (parse → primitive/group detection →
  auto-sized canvas), which is what lets a request carry a circuit the
  registry has never seen.

The default registry holds the paper's five evaluation blocks; user code
can :meth:`register` more (see ``examples/custom_circuit.py`` for how a
block is built by hand).
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

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


class CircuitRegistry:
    """Named circuit builders, with inline-SPICE import on the side.

    Args:
        builders: initial ``key -> builder`` mapping (builders are
            zero-/keyword-argument callables returning an
            :class:`AnalogBlock`; module-level functions stay picklable
            across process backends).
    """

    def __init__(self, builders: Mapping[str, Callable[..., AnalogBlock]] | None = None):
        self._builders: dict[str, Callable[..., AnalogBlock]] = dict(builders or {})

    # ------------------------------------------------------------- registry

    def register(self, key: str, builder: Callable[..., AnalogBlock]) -> None:
        """Add (or replace) a named builder."""
        if not key or not isinstance(key, str):
            raise ValueError(f"circuit key must be a non-empty string, got {key!r}")
        self._builders[key] = builder

    def keys(self) -> tuple[str, ...]:
        """Registered circuit keys, in registration order."""
        return tuple(self._builders)

    @property
    def builders(self) -> Mapping[str, Callable[..., AnalogBlock]]:
        """Live read-only view of the builder table (what ``spec.BUILDERS``
        and the CLI's circuit choices are backed by)."""
        return MappingProxyType(self._builders)

    def builder(self, key: str) -> Callable[..., AnalogBlock]:
        """The builder registered under ``key``."""
        if key not in self._builders:
            raise KeyError(
                f"unknown circuit {key!r}; registered: {sorted(self._builders)}"
            )
        return self._builders[key]

    def build(self, key: str, **kwargs) -> AnalogBlock:
        """Materialise the block registered under ``key``."""
        return self.builder(key)(**kwargs)

    def __contains__(self, key: object) -> bool:
        return key in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)

    # --------------------------------------------------------- inline SPICE

    def block_from_spice(
        self,
        text: str,
        *,
        kind: str = "cm",
        name: str = "imported",
        canvas: tuple[int, int] | None = None,
        params: Mapping[str, object] | None = None,
        input_nets: tuple[str, ...] = (),
        output_nets: tuple[str, ...] = (),
    ) -> AnalogBlock:
        """Build a placeable block from an inline SPICE deck.

        The deck runs the full staged ingestion pipeline
        (:func:`repro.netlist.constraints.ingest_deck`: parse → hierarchy →
        constraint extraction → validation); registration is refused when
        the :class:`~repro.netlist.constraints.ConstraintReport` carries
        errors.  Unless given, the canvas is sized to a square with ~2x
        slack over the unit count, the same occupancy regime the library
        blocks use.

        Args:
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

        Raises:
            ConstraintValidationError: the deck failed constraint
                validation (partition/pair/rail errors).
        """
        if kind not in BLOCK_KINDS:
            raise ValueError(f"kind must be one of {BLOCK_KINDS}, got {kind!r}")
        from repro.netlist.constraints import ingest_deck

        result = ingest_deck(text, name=name, kind=kind,
                             params=dict(params or {}))
        result.report.raise_if_errors()
        constraints = result.constraints
        if not constraints.groups:
            raise ValueError(
                "deck has no placeable primitive groups (no MOSFETs?)"
            )
        circuit = result.circuit
        if canvas is None:
            side = max(2, math.ceil(math.sqrt(2 * circuit.total_units())))
            canvas = (side, side)
        return AnalogBlock(
            name=name,
            kind=kind,
            circuit=circuit,
            groups=constraints.groups,
            pairs=constraints.pairs,
            canvas=canvas,
            params=dict(params or {}),
            input_nets=tuple(input_nets),
            output_nets=tuple(output_nets),
            super_groups=constraints.super_groups,
        )


#: Keys baked into every process's default registry at import time —
#: the only keys safe to ship *as keys* to process-pool workers, since
#: a spawned/forkserver worker re-imports this module and sees exactly
#: these (runtime registrations live only in the parent).
BUILTIN_CIRCUITS = frozenset({"cm", "comp", "ota", "ota5t", "ota2s"})

#: The paper's five evaluation blocks, in the canonical report order.
_DEFAULT = CircuitRegistry({
    "cm": current_mirror,
    "comp": comparator,
    "ota": folded_cascode_ota,
    "ota5t": five_transistor_ota,
    "ota2s": two_stage_ota,
})


def default_registry() -> CircuitRegistry:
    """The process-wide shared registry (CLI, specs and service use it)."""
    return _DEFAULT
