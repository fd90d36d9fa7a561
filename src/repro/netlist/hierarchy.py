"""Hierarchical netlists: ``.subckt`` definitions, ``X`` instances, flattening.

The simulator and the placer both consume flat :class:`~repro.netlist.circuit.
Circuit` objects, but real decks arrive hierarchical: ``.subckt``/``.ends``
blocks instantiated by ``X`` cards.  This module is the bridge — a
:class:`HierarchicalCircuit` holds subcircuit definitions plus top-level
devices and instances, and :meth:`HierarchicalCircuit.flatten` expands it
into a flat circuit with instance-prefixed device names while remembering
where each subcircuit's devices landed (:class:`InstanceScope`).

Flattening conventions:

* device and net names inside an instance are prefixed ``<path>_`` where
  ``path`` joins nested instance names with ``_`` (device names only allow
  ``[a-z0-9_]``, so ``_`` is the separator);
* subcircuit ports map positionally onto the ``X`` card's nets;
* rail nets (ground/supply, see :mod:`repro.netlist.nets`) are global and
  pass through unprefixed, matching SPICE's global-node semantics.

The scopes survive flattening so constraint extraction can treat matched
instances of the same subcircuit as symmetric super-groups.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

from repro.netlist.circuit import Circuit
from repro.netlist.devices import Device, _check_name
from repro.netlist.nets import is_rail


class HierarchyError(ValueError):
    """A hierarchical netlist is structurally invalid."""


@dataclass(frozen=True)
class Instance:
    """One ``X`` card: a named instantiation of a subcircuit.

    Attributes:
        name: instance name (without the ``x`` prefix).
        subckt: name of the subcircuit definition being instantiated.
        bindings: nets of the *enclosing* scope, bound positionally onto the
            definition's ports.
    """

    name: str
    subckt: str
    bindings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name)
        if not self.subckt:
            raise HierarchyError(f"instance {self.name!r} names no subcircuit")
        object.__setattr__(self, "bindings", tuple(self.bindings))
        if not self.bindings:
            raise HierarchyError(f"instance {self.name!r} binds no nets")


@dataclass(frozen=True)
class SubcktDef:
    """A ``.subckt`` block: ports, devices, and nested instances."""

    name: str
    ports: tuple[str, ...]
    devices: tuple[Device, ...] = ()
    instances: tuple[Instance, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise HierarchyError("subcircuit name cannot be empty")
        object.__setattr__(self, "ports", tuple(self.ports))
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "instances", tuple(self.instances))
        if not self.ports:
            raise HierarchyError(f"subcircuit {self.name!r} declares no ports")
        if len(set(self.ports)) != len(self.ports):
            raise HierarchyError(f"subcircuit {self.name!r} repeats a port name")
        names = [d.name for d in self.devices] + [i.name for i in self.instances]
        if len(set(names)) != len(names):
            raise HierarchyError(f"subcircuit {self.name!r} repeats an element name")


@dataclass(frozen=True)
class InstanceScope:
    """Where one subcircuit instance landed in the flat circuit.

    Attributes:
        path: flattened instance path, e.g. ``"a"`` or ``"a_b"`` for nesting.
        subckt: name of the definition this scope instantiates.
        devices: flat names of the devices expanded directly in this scope
            (nested instances get scopes of their own).
    """

    path: str
    subckt: str
    devices: tuple[str, ...] = ()


@dataclass(frozen=True)
class Flattened:
    """Result of :meth:`HierarchicalCircuit.flatten`."""

    circuit: Circuit
    scopes: tuple[InstanceScope, ...] = ()


class HierarchicalCircuit:
    """A netlist with subcircuit definitions, top devices, and instances.

    Insertion order is preserved for definitions, devices, and instances,
    keeping flattening (and everything downstream of it) deterministic.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("circuit name cannot be empty")
        self.name = name
        self._subckts: dict[str, SubcktDef] = {}
        self._devices: dict[str, Device] = {}
        self._instances: dict[str, Instance] = {}

    # ------------------------------------------------------------------ build

    def add_subckt(self, defn: SubcktDef) -> SubcktDef:
        if defn.name in self._subckts:
            raise HierarchyError(f"duplicate subcircuit definition: {defn.name}")
        self._subckts[defn.name] = defn
        return defn

    def add(self, device: Device) -> Device:
        if device.name in self._devices or device.name in self._instances:
            raise HierarchyError(f"duplicate top-level element name: {device.name}")
        self._devices[device.name] = device
        return device

    def add_instance(self, instance: Instance) -> Instance:
        if instance.name in self._instances or instance.name in self._devices:
            raise HierarchyError(f"duplicate top-level element name: {instance.name}")
        self._instances[instance.name] = instance
        return instance

    # ----------------------------------------------------------------- access

    @property
    def subckts(self) -> Mapping[str, SubcktDef]:
        return MappingProxyType(self._subckts)

    @property
    def devices(self) -> tuple[Device, ...]:
        return tuple(self._devices.values())

    @property
    def instances(self) -> tuple[Instance, ...]:
        return tuple(self._instances.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchicalCircuit):
            return NotImplemented
        return (
            self.name == other.name
            and self._subckts == other._subckts
            and self._devices == other._devices
            and self._instances == other._instances
        )

    def __repr__(self) -> str:
        return (
            f"HierarchicalCircuit({self.name!r}, subckts={len(self._subckts)}, "
            f"devices={len(self._devices)}, instances={len(self._instances)})"
        )

    # ---------------------------------------------------------------- flatten

    def flatten(self) -> Flattened:
        """Expand every instance into a flat :class:`Circuit`.

        Raises:
            HierarchyError: unknown subcircuit, port-count mismatch,
                recursive instantiation, or a flat-name collision.
        """
        circuit = Circuit(self.name)
        scopes: list[InstanceScope] = []
        for device in self._devices.values():
            circuit.add(device)
        for instance in self._instances.values():
            self._expand(circuit, scopes, instance, prefix="", stack=())
        return Flattened(circuit=circuit, scopes=tuple(scopes))

    def _expand(self, circuit: Circuit, scopes: list[InstanceScope],
                instance: Instance, prefix: str, stack: tuple[str, ...]) -> None:
        defn = self._subckts.get(instance.subckt)
        if defn is None:
            raise HierarchyError(
                f"instance {prefix}{instance.name!r} references unknown "
                f"subcircuit {instance.subckt!r}"
            )
        if instance.subckt in stack:
            chain = " -> ".join(stack + (instance.subckt,))
            raise HierarchyError(f"recursive subcircuit instantiation: {chain}")
        if len(instance.bindings) != len(defn.ports):
            raise HierarchyError(
                f"instance {prefix}{instance.name!r} binds "
                f"{len(instance.bindings)} nets but subcircuit {defn.name!r} "
                f"has {len(defn.ports)} ports"
            )
        path = prefix + instance.name
        bound = dict(zip(defn.ports, instance.bindings))

        def map_net(net: str) -> str:
            if net in bound:
                return bound[net]
            if is_rail(net):
                return net  # rails are global, SPICE-style
            return f"{path}_{net}"

        flat_names = []
        for device in defn.devices:
            flat = replace(
                device,
                name=f"{path}_{device.name}",
                conns={p: map_net(device.net(p)) for p in device.PORTS},
            )
            try:
                circuit.add(flat)
            except ValueError as exc:
                raise HierarchyError(str(exc)) from exc
            flat_names.append(flat.name)
        scopes.append(InstanceScope(path=path, subckt=defn.name,
                                    devices=tuple(flat_names)))
        for nested in defn.instances:
            mapped = Instance(
                name=nested.name,
                subckt=nested.subckt,
                bindings=tuple(map_net(n) for n in nested.bindings),
            )
            self._expand(circuit, scopes, mapped, prefix=path + "_",
                         stack=stack + (instance.subckt,))
