"""Analog primitives: grouping and matched pairs.

The paper's hierarchy is built on the standard analog grouping strategy:
sensitive transistors are grouped according to primitives — input pair,
load pair, current mirror, etc. (its references [6][9]).  A
:class:`Group` becomes one bottom-level RL agent; the set of groups is what
the top-level agent moves.

:func:`detect_groups` recovers primitive structure from a bare netlist for
circuits built outside the library; the library circuits also ship explicit
groups so experiments never depend on heuristics.  Detection itself lives
in :mod:`repro.netlist.constraints` (graph-based template matching);
:func:`detect_groups` is kept as the thin compatibility wrapper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.netlist.circuit import Circuit


class GroupKind(enum.Enum):
    """The primitive kinds the grouping layer distinguishes."""

    DIFF_PAIR = "diff_pair"
    CURRENT_MIRROR = "current_mirror"
    LOAD_PAIR = "load_pair"
    CASCODE_PAIR = "cascode_pair"
    CROSS_COUPLED = "cross_coupled"
    LEVEL_SHIFTER = "level_shifter"
    DEVICE_ARRAY = "device_array"
    SINGLE = "single"


@dataclass(frozen=True)
class Group:
    """A placement group: devices that move together under one agent.

    Attributes:
        name: unique group name.
        kind: primitive kind (affects nothing algorithmic — metadata that
            the reports and the symmetric generators use).
        devices: member device names, in a stable order.
    """

    name: str
    kind: GroupKind
    devices: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("group name cannot be empty")
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise ValueError(f"group {self.name!r} has no devices")
        if len(set(self.devices)) != len(self.devices):
            raise ValueError(f"group {self.name!r} lists a device twice")


@dataclass(frozen=True)
class MatchedPair:
    """Two devices whose parameter difference degrades performance.

    Attributes:
        a: first device name.
        b: second device name.
        weight: relative importance in aggregate mismatch summaries.
    """

    a: str
    b: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"a matched pair needs two distinct devices, got {self.a}")
        if self.weight <= 0:
            raise ValueError(f"pair weight must be positive, got {self.weight}")

    def names(self) -> tuple[str, str]:
        return (self.a, self.b)


@dataclass(frozen=True)
class SuperGroup:
    """Groups that form one symmetric super-structure.

    Produced by hierarchical constraint extraction when two instances of the
    same subcircuit sit in symmetric positions: each instance's groups
    belong to the super-group, and matched pairs may span its member groups
    (mirrored placement of the two half-cells keeps them matched).

    Attributes:
        name: unique super-group name.
        groups: member *group* names.
    """

    name: str
    groups: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("super-group name cannot be empty")
        object.__setattr__(self, "groups", tuple(self.groups))
        if len(self.groups) < 2:
            raise ValueError(f"super-group {self.name!r} needs at least two groups")
        if len(set(self.groups)) != len(self.groups):
            raise ValueError(f"super-group {self.name!r} lists a group twice")


def detect_groups(circuit: Circuit) -> tuple[list[Group], list[MatchedPair]]:
    """Primitive detection over a bare netlist (compatibility wrapper).

    Delegates to the graph-based template engine in
    :mod:`repro.netlist.constraints` — see
    :func:`~repro.netlist.constraints.extract_constraints` for the template
    set and the deterministic claim-scoring rules.  Hierarchy-aware callers
    should use ``extract_constraints`` directly, which also returns
    super-groups.

    Returns:
        ``(groups, matched_pairs)``; pairs are generated for same-size
        members inside each multi-device group.
    """
    from repro.netlist.constraints import extract_constraints

    constraints = extract_constraints(circuit)
    return list(constraints.groups), list(constraints.pairs)


def validate_groups(circuit: Circuit, groups: list[Group]) -> None:
    """Raise unless ``groups`` exactly partition the placeable devices."""
    placeable = {d.name for d in circuit.placeable()}
    seen: set[str] = set()
    for group in groups:
        for name in group.devices:
            if name not in placeable:
                raise ValueError(
                    f"group {group.name!r} references non-placeable or unknown "
                    f"device {name!r}"
                )
            if name in seen:
                raise ValueError(f"device {name!r} appears in two groups")
            seen.add(name)
    missing = placeable - seen
    if missing:
        raise ValueError(f"devices not covered by any group: {sorted(missing)}")


def validate_pairs(circuit: Circuit, groups: Sequence[Group],
                   pairs: Iterable[MatchedPair],
                   super_groups: Sequence[SuperGroup] = ()) -> None:
    """Raise unless every matched pair is structurally sound.

    A pair must reference two existing, placeable devices that sit in the
    same group — or, for hierarchical symmetry, in two groups that belong
    to one super-group (the mirrored-instance case).
    """
    placeable = {d.name for d in circuit.placeable()}
    group_of: dict[str, str] = {}
    for group in groups:
        for name in group.devices:
            group_of[name] = group.name
    alliance: dict[str, str] = {}
    for sg in super_groups:
        for group_name in sg.groups:
            alliance[group_name] = sg.name
    for pair in pairs:
        for name in pair.names():
            if name not in placeable:
                raise ValueError(
                    f"pair ({pair.a}, {pair.b}) references non-placeable or "
                    f"unknown device {name!r}"
                )
            if name not in group_of:
                raise ValueError(
                    f"pair ({pair.a}, {pair.b}) references device {name!r} "
                    f"which is in no group"
                )
        ga, gb = group_of[pair.a], group_of[pair.b]
        if ga != gb and (ga not in alliance or alliance[ga] != alliance.get(gb)):
            raise ValueError(
                f"pair ({pair.a}, {pair.b}) spans groups {ga!r} and {gb!r} "
                f"that share no super-group"
            )
