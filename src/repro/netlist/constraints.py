"""Graph-based symmetry-constraint extraction and validation.

The staged ingestion pipeline — **parse → build hierarchy → extract
constraints → validate → register** — replaces the old ad-hoc
``detect_groups``/``validate_groups`` pair.  This module owns the middle
stages:

* :func:`extract_constraints` matches primitive templates (differential
  pair, current mirror including cascoded/ratioed forms, load pair,
  cross-coupled pair, cascode pair, level shifter, device array) as
  subgraph patterns over the circuit's bipartite device/net connectivity
  (:meth:`Circuit.net_map`),
  following the hierarchical template-matching approach of Kunal et al.
  Ambiguous claims are scored deterministically: templates run in a fixed
  priority order, candidates within a template are ranked by a structural
  symmetry score with netlist order as the tiebreak, and devices are
  claimed greedily — the same deck always yields the same partition.
  On a hierarchical netlist, extraction runs per instance scope, and
  matched instances of the same subcircuit become symmetric
  :class:`~repro.netlist.primitives.SuperGroup`\\ s with cross-instance
  matched pairs.

* :func:`validate_constraints` turns validation into data: a
  :class:`ConstraintReport` of findings (partition coverage, pair
  consistency, rail sanity, physically-impossible groups as *errors*;
  measurement-suite contract gaps as *warnings*) that the service rejects
  on instead of silently placing.

* :func:`ingest_deck` runs the whole pipeline on raw SPICE text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.netlist.circuit import Circuit
from repro.netlist.devices import Capacitor, Device, Mosfet, Resistor
from repro.netlist.hierarchy import Flattened, HierarchicalCircuit
from repro.netlist.nets import is_ground, is_rail, is_supply
from repro.netlist.primitives import (
    Group,
    GroupKind,
    MatchedPair,
    SuperGroup,
    validate_groups,
    validate_pairs,
)

NetIndex = dict[str, tuple[tuple[Device, str], ...]]


@dataclass(frozen=True)
class ConstraintSet:
    """Everything extraction produces: the partition, pairs, super-groups."""

    groups: tuple[Group, ...]
    pairs: tuple[MatchedPair, ...]
    super_groups: tuple[SuperGroup, ...] = ()


# --------------------------------------------------------------------------
# Template engine
# --------------------------------------------------------------------------


def _matched(a: Mosfet, b: Mosfet) -> bool:
    """Same polarity and identical drawn geometry (unit-for-unit)."""
    return (
        a.polarity == b.polarity
        and a.n_units == b.n_units
        and abs(a.width - b.width) < 1e-12
        and abs(a.length - b.length) < 1e-12
    )


def _net_signature(net_index: NetIndex, net: str, exclude: frozenset[str]) -> tuple:
    """Order-free structural fingerprint of what hangs on ``net``.

    Two nets with equal signatures see electrically equivalent surroundings
    — the symmetry test behind load pairs, cascode pairs, and instance
    matching.  ``exclude`` removes the candidate devices themselves so the
    comparison looks only at the *context*.
    """
    sig = []
    for device, port in net_index.get(net, ()):
        if device.name in exclude:
            continue
        if isinstance(device, Mosfet):
            sig.append(("m", device.polarity, device.width, device.length, port))
        elif isinstance(device, (Resistor, Capacitor)):
            # Passives are orientation-free: a load written ``r out gnd``
            # matches its mirror-image ``r gnd out``, but only at equal
            # value — the port says nothing, the value says everything.
            sig.append((type(device).__name__, device.value))
        else:
            sig.append((type(device).__name__, port))
    return tuple(sorted(sig, key=repr))


def _symmetric_nets(net_index: NetIndex, net_a: str, net_b: str,
                    exclude: frozenset[str]) -> bool:
    if net_a == net_b:
        return True
    return (_net_signature(net_index, net_a, exclude)
            == _net_signature(net_index, net_b, exclude))


def _is_diode(m: Mosfet) -> bool:
    return m.net("d") == m.net("g")


class _Extractor:
    """Runs the template phases over subsets of one flat circuit.

    Group numbering is global across calls so hierarchical extraction can
    reuse one extractor per scope without name collisions.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.net_index: NetIndex = circuit.net_map()
        self.groups: list[Group] = []
        self.pairs: list[MatchedPair] = []

    # -- claim helpers ----------------------------------------------------

    def _claim(self, claimed: set[str], names: list[str], kind: GroupKind,
               tag: str) -> Group:
        group = Group(name=f"{tag}{len(self.groups)}", kind=kind,
                      devices=tuple(names))
        self.groups.append(group)
        claimed.update(names)
        return group

    def _pair_all_matched(self, members: list[Mosfet],
                          weight: float = 1.0) -> None:
        for a, b in itertools.combinations(members, 2):
            if _matched(a, b):
                self.pairs.append(MatchedPair(a.name, b.name, weight=weight))

    # -- the engine -------------------------------------------------------

    def extract(self, members: list[Mosfet]) -> list[Group]:
        """Partition ``members`` into primitive groups (in priority order)."""
        start = len(self.groups)
        claimed: set[str] = set()

        def free() -> list[Mosfet]:
            return [m for m in members if m.name not in claimed]

        self._arrays(claimed, free)
        self._cross_coupled(claimed, free)
        self._diff_pairs(claimed, free)
        self._mirrors(claimed, free)
        self._cascodes(claimed, free)
        self._level_shifters(claimed, free)
        self._load_pairs(claimed, free)
        for m in free():
            self._claim(claimed, [m.name], GroupKind.SINGLE, "sg")
        return self.groups[start:]

    def _arrays(self, claimed, free) -> None:
        """Identical connectivity *and* geometry: parallel unit banks."""
        buckets: dict[tuple, list[Mosfet]] = {}
        for m in free():
            key = (m.net("d"), m.net("g"), m.net("s"), m.polarity,
                   m.width, m.length, m.n_units)
            buckets.setdefault(key, []).append(m)
        for ms in buckets.values():
            if len(ms) < 2:
                continue
            self._claim(claimed, [m.name for m in ms], GroupKind.DEVICE_ARRAY, "arr")
            self._pair_all_matched(ms)

    def _cross_coupled(self, claimed, free) -> None:
        for a, b in itertools.combinations(free(), 2):
            if a.name in claimed or b.name in claimed or not _matched(a, b):
                continue
            if (a.net("g") == b.net("d") and b.net("g") == a.net("d")
                    and a.net("g") != b.net("g")):
                self._claim(claimed, [a.name, b.name], GroupKind.CROSS_COUPLED, "xc")
                self.pairs.append(MatchedPair(a.name, b.name))

    def _diff_pairs(self, claimed, free) -> None:
        """Shared non-rail source, distinct gates/drains, matched sizes.

        When one tail node feeds more than one candidate pairing, the pair
        whose drains see symmetric context wins; netlist order breaks ties.
        """
        pool = free()
        order = {m.name: i for i, m in enumerate(pool)}
        candidates = []
        for a, b in itertools.combinations(pool, 2):
            if not _matched(a, b):
                continue
            if a.net("s") != b.net("s") or is_rail(a.net("s")):
                continue
            if a.net("g") == b.net("g") or a.net("d") == b.net("d"):
                continue
            exclude = frozenset((a.name, b.name))
            score = 1 if _symmetric_nets(self.net_index, a.net("d"), b.net("d"),
                                         exclude) else 0
            candidates.append((-score, order[a.name], order[b.name], a, b))
        for _, _, _, a, b in sorted(candidates, key=lambda c: c[:3]):
            if a.name in claimed or b.name in claimed:
                continue
            self._claim(claimed, [a.name, b.name], GroupKind.DIFF_PAIR, "dp")
            self.pairs.append(MatchedPair(a.name, b.name, weight=2.0))

    def _source_rail(self, m: Mosfet) -> str | None:
        """The rail ``m``'s source reaches: directly, or through resistors.

        Source-degenerated mirrors and loads interpose a resistor between
        each leg and the rail; the mirror shape survives as long as every
        *other* device on the source net is a resistor whose far terminal
        lands on one common rail.  Anything else on the net (a tail
        device, another branch) means this is not a degenerated rail leg.
        """
        source = m.net("s")
        if is_ground(source) or is_supply(source):
            return source
        rails: set[str] = set()
        for device, port in self.net_index.get(source, ()):
            if device.name == m.name:
                continue
            if not isinstance(device, Resistor):
                return None
            far = device.net("b" if port == "a" else "a")
            if not (is_ground(far) or is_supply(far)):
                return None
            rails.add(far)
        return rails.pop() if len(rails) == 1 else None

    def _rail_buckets(self, pool: list[Mosfet]) -> dict[tuple, list[Mosfet]]:
        """Bucket by (gate net, rail source, polarity) — mirror/load shape.

        The rail may be reached through degeneration resistors
        (:meth:`_source_rail`), so ``mref bias bias s0`` + ``r s0 gnd``
        buckets exactly like the undegenerated ``mref bias bias gnd``.
        """
        buckets: dict[tuple, list[Mosfet]] = {}
        for m in pool:
            rail = self._source_rail(m)
            if rail is None:
                continue
            buckets.setdefault((m.net("g"), rail, m.polarity), []).append(m)
        return buckets

    def _mirrors(self, claimed, free) -> None:
        """Current mirrors: shared gate + rail source + a reference.

        The reference is either a diode-connected member or, in the cascoded
        form, the member whose drain current closes the loop through a
        cascode device that drives the shared gate.  Ratioed legs join the
        group; matched pairs are emitted only for same-size members, with
        weight 2.0 for reference↔output pairs and 1.0 between outputs.
        """
        for (gate, _, _), ms in self._rail_buckets(free()).items():
            if len(ms) < 2 or is_rail(gate):
                continue
            refs = {m.name for m in ms if _is_diode(m)}
            if not refs:
                member_drains = {m.net("d"): m.name for m in ms}
                for device, port in self.net_index.get(gate, ()):
                    if (isinstance(device, Mosfet) and port == "d"
                            and device.net("s") in member_drains):
                        refs.add(member_drains[device.net("s")])
                if not refs:
                    continue  # externally biased: the load-pair phase decides
            self._claim(claimed, [m.name for m in ms],
                        GroupKind.CURRENT_MIRROR, "cm")
            for a, b in itertools.combinations(ms, 2):
                if not _matched(a, b):
                    continue  # ratioed legs are grouped, not matched
                weight = 2.0 if (a.name in refs) != (b.name in refs) else 1.0
                self.pairs.append(MatchedPair(a.name, b.name, weight=weight))

    def _cascodes(self, claimed, free) -> None:
        """Cascode pairs: one gate bias over two symmetric stacked branches.

        When one gate bias covers more than two candidates (a reference
        cascode closing a diode loop next to matched output legs), pairs
        whose drains also see symmetric context win; netlist order breaks
        ties.
        """
        pool = free()
        order = {m.name: i for i, m in enumerate(pool)}
        buckets: dict[tuple[str, int], list[Mosfet]] = {}
        for m in pool:
            gate = m.net("g")
            if is_rail(gate) or is_rail(m.net("s")):
                continue
            buckets.setdefault((gate, m.polarity), []).append(m)
        candidates = []
        for ms in buckets.values():
            if len(ms) < 2:
                continue
            for a, b in itertools.combinations(ms, 2):
                if not _matched(a, b):
                    continue
                if a.net("s") == b.net("s") or a.net("d") == b.net("d"):
                    continue
                exclude = frozenset((a.name, b.name))
                if not _symmetric_nets(self.net_index, a.net("s"), b.net("s"),
                                       exclude):
                    continue
                drain_sym = _symmetric_nets(self.net_index, a.net("d"),
                                            b.net("d"), exclude)
                candidates.append(
                    (not drain_sym, order[a.name], order[b.name], a, b))
        for *_, a, b in sorted(candidates, key=lambda c: c[:3]):
            if a.name in claimed or b.name in claimed:
                continue
            self._claim(claimed, [a.name, b.name], GroupKind.CASCODE_PAIR, "casc")
            self.pairs.append(MatchedPair(a.name, b.name))

    def _level_shifters(self, claimed, free) -> None:
        """Source-follower pairs: drains on one rail, symmetric sources."""
        for a, b in itertools.combinations(free(), 2):
            if a.name in claimed or b.name in claimed or not _matched(a, b):
                continue
            if a.net("d") != b.net("d") or not is_rail(a.net("d")):
                continue
            if a.net("g") == b.net("g") or is_rail(a.net("g")) or is_rail(b.net("g")):
                continue
            if a.net("s") == b.net("s") or is_rail(a.net("s")) or is_rail(b.net("s")):
                continue
            exclude = frozenset((a.name, b.name))
            if not _symmetric_nets(self.net_index, a.net("s"), b.net("s"), exclude):
                continue
            self._claim(claimed, [a.name, b.name], GroupKind.LEVEL_SHIFTER, "ls")
            self.pairs.append(MatchedPair(a.name, b.name))

    def _load_pairs(self, claimed, free) -> None:
        """Externally-biased rail banks whose drains see symmetric context.

        Members pair up only with drain-symmetric partners; a member with no
        partner stays unclaimed (it is a bias single wearing a shared gate,
        not half of a load pair — the two-stage OTA's tail/sink case).
        """
        for ms in self._rail_buckets(free()).values():
            if len(ms) < 2:
                continue
            partners: dict[str, list[Mosfet]] = {m.name: [] for m in ms}
            partner_pairs = []
            for a, b in itertools.combinations(ms, 2):
                if not _matched(a, b):
                    continue
                exclude = frozenset((a.name, b.name))
                if _symmetric_nets(self.net_index, a.net("d"), b.net("d"), exclude):
                    partners[a.name].append(b)
                    partners[b.name].append(a)
                    partner_pairs.append((a, b))
            members = [m for m in ms if partners[m.name]]
            if len(members) < 2:
                continue
            self._claim(claimed, [m.name for m in members], GroupKind.LOAD_PAIR, "lp")
            for a, b in partner_pairs:
                self.pairs.append(MatchedPair(a.name, b.name))


# --------------------------------------------------------------------------
# Flat and hierarchical extraction
# --------------------------------------------------------------------------


def extract_constraints(
    circuit: Circuit | HierarchicalCircuit | Flattened,
) -> ConstraintSet:
    """Extract the symmetry constraints of a circuit.

    Flat circuits get one pass of the template engine.  Hierarchical inputs
    (a :class:`HierarchicalCircuit` or an already-flattened
    :class:`Flattened`) are extracted per instance scope, then matched
    instances of the same subcircuit in symmetric surroundings become
    :class:`SuperGroup`\\ s with cross-instance matched pairs.
    """
    if isinstance(circuit, HierarchicalCircuit):
        return _extract_hierarchical(circuit.flatten())
    if isinstance(circuit, Flattened):
        return _extract_hierarchical(circuit)
    extractor = _Extractor(circuit)
    extractor.extract([m for m in circuit.mosfets()])
    return ConstraintSet(groups=tuple(extractor.groups),
                         pairs=tuple(extractor.pairs))


def _extract_hierarchical(flat: Flattened) -> ConstraintSet:
    circuit = flat.circuit
    extractor = _Extractor(circuit)
    scoped = {name for scope in flat.scopes for name in scope.devices}

    scope_groups: dict[str, list[Group]] = {}
    for scope in flat.scopes:
        members = [m for m in circuit.mosfets() if m.name in set(scope.devices)]
        scope_groups[scope.path] = extractor.extract(members)
    top = [m for m in circuit.mosfets() if m.name not in scoped]
    extractor.extract(top)

    super_groups = _match_instances(flat, extractor, scope_groups)
    return ConstraintSet(groups=tuple(extractor.groups),
                         pairs=tuple(extractor.pairs),
                         super_groups=tuple(super_groups))


def _scope_ports(flat: Flattened, path: str) -> tuple[str, ...]:
    """The flat nets a scope exposes: everything not internal to it."""
    prefix = f"{path}_"
    nets: dict[str, None] = {}
    for name in next(s for s in flat.scopes if s.path == path).devices:
        for net in flat.circuit.device(name).nets:
            if not net.startswith(prefix):
                nets.setdefault(net, None)
    return tuple(nets)


def _match_instances(flat: Flattened, extractor: _Extractor,
                     scope_groups: dict[str, list[Group]]) -> list[SuperGroup]:
    """Pair up instances of the same subcircuit in symmetric surroundings."""
    by_subckt: dict[str, list] = {}
    for scope in flat.scopes:
        by_subckt.setdefault(scope.subckt, []).append(scope)

    super_groups: list[SuperGroup] = []
    for scopes in by_subckt.values():
        used: set[str] = set()
        for sa, sb in itertools.combinations(scopes, 2):
            if sa.path in used or sb.path in used:
                continue
            exclude = frozenset(sa.devices) | frozenset(sb.devices)
            ports_a = _scope_ports(flat, sa.path)
            ports_b = _scope_ports(flat, sb.path)
            if len(ports_a) != len(ports_b):
                continue
            if not all(
                _symmetric_nets(extractor.net_index, na, nb, exclude)
                for na, nb in zip(ports_a, ports_b)
            ):
                continue
            used.update((sa.path, sb.path))
            member_groups = [g.name for g in scope_groups[sa.path]]
            member_groups += [g.name for g in scope_groups[sb.path]]
            super_groups.append(
                SuperGroup(name=f"sym_{sa.path}_{sb.path}",
                           groups=tuple(member_groups))
            )
            # Cross-instance pairs: the same local device in each half-cell.
            for flat_a in sa.devices:
                local = flat_a[len(sa.path) + 1:]
                flat_b = f"{sb.path}_{local}"
                dev_a = flat.circuit.device(flat_a)
                dev_b = flat.circuit.device(flat_b)
                if (isinstance(dev_a, Mosfet) and isinstance(dev_b, Mosfet)
                        and _matched(dev_a, dev_b)):
                    extractor.pairs.append(MatchedPair(flat_a, flat_b))
    return super_groups


# --------------------------------------------------------------------------
# Validation: the ConstraintReport stage
# --------------------------------------------------------------------------


class ConstraintValidationError(ValueError):
    """Raised by :meth:`ConstraintReport.raise_if_errors`."""


@dataclass(frozen=True)
class Finding:
    """One validation observation.

    Attributes:
        level: ``"error"`` (the service refuses to place) or ``"warning"``.
        code: stable machine-readable category, e.g. ``"partition"``.
        message: human-readable detail.
    """

    level: str
    code: str
    message: str


@dataclass(frozen=True)
class ConstraintReport:
    """The validation stage's output: findings plus extraction counts."""

    circuit: str
    findings: tuple[Finding, ...] = ()
    n_devices: int = 0
    n_groups: int = 0
    n_pairs: int = 0
    n_super_groups: int = 0

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.level == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.level == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_errors(self) -> None:
        if self.errors:
            detail = "; ".join(f"[{f.code}] {f.message}" for f in self.errors)
            raise ConstraintValidationError(
                f"circuit {self.circuit!r} failed constraint validation: {detail}"
            )

    def summary(self) -> str:
        head = (
            f"{self.circuit}: {self.n_devices} placeable devices, "
            f"{self.n_groups} groups, {self.n_pairs} pairs, "
            f"{self.n_super_groups} super-groups — "
            f"{len(self.errors)} errors, {len(self.warnings)} warnings"
        )
        lines = [head]
        for f in self.findings:
            lines.append(f"  {f.level.upper()} [{f.code}] {f.message}")
        return "\n".join(lines)


_PAIRED_KINDS = (GroupKind.DIFF_PAIR, GroupKind.CROSS_COUPLED,
                 GroupKind.CASCODE_PAIR, GroupKind.LEVEL_SHIFTER)

# What each measurement suite expects to find (devices / params); gaps are
# warnings — structural placement needs none of this, evaluation does.
_SUITE_CONTRACTS = {
    "cm": {"devices": ("vvdd",), "params": ("iref", "vdd", "probe_sources")},
    "comp": {"devices": ("m3", "m4", "m5", "m6", "vvip", "vvin", "vvdd"),
             "params": ("vdd", "vcm", "fclk", "clamp_v", "regen_swing",
                        "seed_imbalance")},
    "ota": {"devices": ("vvip", "vvin", "vvdd"), "params": ("vdd", "vcm")},
}


def validate_constraints(circuit: Circuit, constraints: ConstraintSet, *,
                         kind: str | None = None,
                         params: dict | None = None) -> ConstraintReport:
    """Check a constraint set against its circuit; never raises.

    Errors: broken group partition, invalid matched pairs, pairs whose
    members differ in size or polarity, physically-impossible groups
    (mixed-polarity primitives, pair kinds without exactly two members),
    missing ground, dangling nets, devices shorted to a single net.
    Warnings: no supply rail, measurement-suite contract gaps for ``kind``.
    """
    findings: list[Finding] = []

    def err(code: str, message: str) -> None:
        findings.append(Finding("error", code, message))

    def warn(code: str, message: str) -> None:
        findings.append(Finding("warning", code, message))

    groups, pairs = list(constraints.groups), list(constraints.pairs)

    # Partition coverage + pair validity (collected, not raised).
    try:
        validate_groups(circuit, groups)
    except ValueError as exc:
        err("partition", str(exc))
    try:
        validate_pairs(circuit, groups, pairs, list(constraints.super_groups))
    except ValueError as exc:
        err("pair", str(exc))

    # Pair consistency: matched devices must actually match.
    devices = {d.name: d for d in circuit}
    for pair in pairs:
        a, b = devices.get(pair.a), devices.get(pair.b)
        if not isinstance(a, Mosfet) or not isinstance(b, Mosfet):
            continue  # existence is the pair check above
        if a.polarity != b.polarity:
            err("pair-polarity",
                f"pair ({pair.a}, {pair.b}) mixes NMOS and PMOS")
        elif not _matched(a, b):
            err("pair-size",
                f"pair ({pair.a}, {pair.b}) members differ in size")

    # Physically-impossible groups.
    for group in groups:
        members = [devices[n] for n in group.devices
                   if isinstance(devices.get(n), Mosfet)]
        polarities = {m.polarity for m in members}
        if group.kind is not GroupKind.SINGLE and len(polarities) > 1:
            err("group-polarity",
                f"group {group.name!r} ({group.kind.value}) mixes NMOS and PMOS")
        if group.kind in _PAIRED_KINDS and len(group.devices) != 2:
            err("group-arity",
                f"group {group.name!r} ({group.kind.value}) needs exactly two "
                f"devices, has {len(group.devices)}")

    # Rail sanity and net structure.
    nets = circuit.nets()
    if not any(is_ground(n) for n in nets):
        err("rail", f"circuit {circuit.name!r} has no ground net")
    if not any(is_supply(n) for n in nets):
        warn("rail", f"circuit {circuit.name!r} has no supply rail net")
    net_index = circuit.net_map()
    for net, attached in net_index.items():
        if len(attached) == 1 and not is_ground(net):
            device, port = attached[0]
            err("dangling", f"net {net!r} is dangling (only {device.name}.{port})")
    for m in circuit.mosfets():
        if len(set(m.nets)) == 1:
            err("shorted", f"mosfet {m.name!r} has every port on net "
                           f"{m.net('d')!r}")

    # Measurement-suite contract (warnings only: placement works without it).
    contract = _SUITE_CONTRACTS.get(kind or "")
    if contract is not None:
        for name in contract["devices"]:
            if name not in circuit:
                warn("suite-contract",
                     f"{kind} suite expects a device named {name!r}")
        for key in contract["params"]:
            if key not in (params or {}):
                warn("suite-contract",
                     f"{kind} suite expects param {key!r}")

    return ConstraintReport(
        circuit=circuit.name,
        findings=tuple(findings),
        n_devices=len(circuit.placeable()),
        n_groups=len(groups),
        n_pairs=len(pairs),
        n_super_groups=len(constraints.super_groups),
    )


# --------------------------------------------------------------------------
# The pipeline entrypoint
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IngestResult:
    """Output of :func:`ingest_deck`: every pipeline stage's artifact."""

    hierarchical: HierarchicalCircuit
    flat: Flattened
    constraints: ConstraintSet
    report: ConstraintReport

    @property
    def circuit(self) -> Circuit:
        return self.flat.circuit


def ingest_deck(text: str, *, name: str = "imported",
                kind: str | None = None,
                params: dict | None = None) -> IngestResult:
    """Run a SPICE deck through parse → hierarchy → extract → validate.

    The caller decides what to do with the report (the registry refuses to
    register on errors; ``repro corpus check`` prints it).
    """
    from repro.netlist.spice import parse_spice

    hier = parse_spice(text, name=name)
    flat = hier.flatten()
    constraints = extract_constraints(flat)
    report = validate_constraints(flat.circuit, constraints,
                                  kind=kind, params=params)
    return IngestResult(hierarchical=hier, flat=flat,
                        constraints=constraints, report=report)
