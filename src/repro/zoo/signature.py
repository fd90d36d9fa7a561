"""Primitive signatures: rename-stable fingerprints of constraint groups.

A signature captures exactly what makes two groups *interchangeable* to
the bottom-level agents: the primitive kind, and the multiset of member
``(polarity, n_units)`` geometry the translation-invariant group state is
built from (:meth:`repro.layout.env.PlacementEnv.group_state` encodes
``(device index, dcol, drow)`` offsets, so member count and per-member
unit counts decide whether two groups share a state/action space).  The
number of internal matched pairs distinguishes e.g. a matched mirror from
a ratioed one.

Device names, group names and net names never enter a signature — the
extractor's positional names (``dp0``, ``cm3``) differ deck to deck for
identical primitives, which is the whole reason the policy store needs a
structural index.

Signatures serialize to compact strings (:meth:`GroupSignature.key`) so
they live in policy-snapshot metadata as plain JSON and can be compared
without loading table payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.library import AnalogBlock
from repro.netlist.primitives import Group

#: Match tiers :class:`~repro.zoo.index.ZooIndex` distinguishes, most
#: specific first: ``"exact"`` — full signature equality (the Q-tables
#: share a state/action space); ``"coarse"`` — kind, polarity multiset
#: and member count agree but unit counts differ (tables overlap only
#: where states coincide, still a useful prior).
MATCH_TIERS = ("exact", "coarse")


@dataclass(frozen=True, order=True)
class GroupSignature:
    """Canonical fingerprint of one constraint group.

    Attributes:
        kind: the :class:`~repro.netlist.primitives.GroupKind` value
            (``"diff_pair"``, ``"current_mirror"``, ...).
        members: sorted ``(polarity, n_units)`` per member — the group's
            geometry multiset.
        internal_pairs: matched pairs with both ends inside the group.
    """

    kind: str
    members: tuple[tuple[int, int], ...]
    internal_pairs: int

    def key(self) -> str:
        """Compact string form, e.g. ``"diff_pair|+1x3,+1x3|p1"``."""
        geom = ",".join(f"{p:+d}x{u}" for p, u in self.members)
        return f"{self.kind}|{geom}|p{self.internal_pairs}"

    def coarse_key(self) -> str:
        """The kind/polarity/arity tier (unit counts dropped), e.g.
        ``"diff_pair|+1,+1"``."""
        return f"{self.kind}|{','.join(f'{p:+d}' for p, __ in self.members)}"

    @classmethod
    def from_key(cls, key: str) -> "GroupSignature":
        """Parse a :meth:`key` string back (inverse of ``key()``)."""
        try:
            kind, geom, pairs = key.split("|")
            members = tuple(
                (int(tok.split("x")[0]), int(tok.split("x")[1]))
                for tok in geom.split(",")
            )
            if not pairs.startswith("p"):
                raise ValueError(key)
            return cls(kind=kind, members=members,
                       internal_pairs=int(pairs[1:]))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad group-signature key {key!r}") from exc


def group_signature(block: AnalogBlock, group: Group) -> GroupSignature:
    """The signature of one of ``block``'s groups."""
    members = tuple(sorted(
        (
            int(getattr(block.circuit.device(name), "polarity", 0)),
            int(getattr(block.circuit.device(name), "n_units", 1)),
        )
        for name in group.devices
    ))
    inside = frozenset(group.devices)
    internal = sum(
        1 for pair in block.pairs if pair.a in inside and pair.b in inside
    )
    return GroupSignature(kind=group.kind.value, members=members,
                          internal_pairs=internal)


def block_signatures(block: AnalogBlock) -> dict[str, GroupSignature]:
    """Group name → signature, for every group of the block.

    The group *names* here are local handles (the live block's agent
    addresses are ``("bottom", <name>)``); only the signatures are
    comparable across circuits.
    """
    return {g.name: group_signature(block, g) for g in block.groups}


def circuit_signature(block: AnalogBlock) -> str:
    """Whole-circuit signature: the sorted multiset of group signatures.

    Two blocks with equal circuit signatures present identical state
    spaces to the *top* agent up to group ordering — the only situation
    in which the global-centroid table is worth transferring.
    """
    return ";".join(sorted(
        sig.key() for sig in block_signatures(block).values()
    ))


def _table_visits(table) -> int:
    """Total recorded Bellman updates behind one Q-table."""
    return sum(visits for *__, visits in table.entries())


def signature_meta(block: AnalogBlock, tables: dict | None = None) -> dict:
    """The JSON-plain ``zoo`` metadata stamped into policy snapshots.

    Shape::

        {"circuit_signature": "<sig;sig;...>",
         "groups": {"<group name>": "<signature key>", ...},
         "group_visits": {"<group name>": <int>, ...},   # with tables
         "top_visits": <int>}                            # with tables

    Group names index the snapshot's ``("bottom", <name>)`` tables; the
    signature keys are what :class:`~repro.zoo.index.ZooIndex` matches.
    When the policy's tables snapshot is passed, per-group visit totals
    ride along so the index can rank same-tier matches by recorded
    evidence without loading table payloads.
    """
    meta: dict = {
        "circuit_signature": circuit_signature(block),
        "groups": {
            name: sig.key() for name, sig in block_signatures(block).items()
        },
    }
    if tables is not None:
        visits: dict[str, int] = {}
        top = 0
        for address, table in tables.items():
            if address[0] == "bottom" and len(address) == 2:
                visits[address[1]] = _table_visits(table)
            elif address in (("top",), ("agent",)):
                top += _table_visits(table)
        meta["group_visits"] = visits
        meta["top_visits"] = top
    return meta
