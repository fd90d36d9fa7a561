"""The flat :class:`Circuit` container and its connectivity queries.

A circuit is an ordered collection of uniquely-named devices.  Nets are
implied by device connections; the circuit derives net membership, exposes
a net → ``(device, port)`` adjacency map for structural queries (used by
constraint extraction), and validates that the netlist is electrically
plausible before simulation.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.netlist.devices import Device, Mosfet
from repro.netlist.nets import is_ground


class Circuit:
    """A named, flat analog netlist.

    Devices are added once and never mutated; to modify a circuit, build a
    new one (see :meth:`copy_with`).  Iteration order is insertion order,
    which keeps downstream numbering (e.g. MNA indices) deterministic.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("circuit name cannot be empty")
        self.name = name
        self._devices: dict[str, Device] = {}

    # ------------------------------------------------------------------ build

    def add(self, device: Device) -> Device:
        """Add a device; names must be unique within the circuit."""
        if device.name in self._devices:
            raise ValueError(f"duplicate device name: {device.name}")
        self._devices[device.name] = device
        return device

    def copy_with(self, replacements: Mapping[str, Device] | None = None,
                  extra: list[Device] | None = None) -> "Circuit":
        """A new circuit with some devices replaced and/or appended.

        Args:
            replacements: device-name → new device (the name key must already
                exist; the new device may have the same or a new name).
            extra: devices to append after the existing ones.
        """
        replacements = dict(replacements or {})
        unknown = set(replacements) - set(self._devices)
        if unknown:
            raise KeyError(f"cannot replace unknown devices: {sorted(unknown)}")
        out = Circuit(self.name)
        for name, device in self._devices.items():
            out.add(replacements.get(name, device))
        for device in extra or []:
            out.add(device)
        return out

    # ----------------------------------------------------------------- access

    def __contains__(self, name: str) -> bool:
        return name in self._devices

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self._devices.values())

    def device(self, name: str) -> Device:
        """Look up a device by name."""
        if name not in self._devices:
            raise KeyError(f"no device named {name!r} in circuit {self.name!r}")
        return self._devices[name]

    def mosfets(self) -> tuple[Mosfet, ...]:
        """All MOSFETs, in insertion order."""
        return tuple(d for d in self._devices.values() if isinstance(d, Mosfet))

    def placeable(self) -> tuple[Mosfet, ...]:
        """Devices the placer must position (currently: all MOSFETs)."""
        return tuple(d for d in self._devices.values() if d.is_placeable)

    def nets(self) -> tuple[str, ...]:
        """All net names, in first-touch order."""
        seen: dict[str, None] = {}
        for device in self._devices.values():
            for net in device.nets:
                seen.setdefault(net, None)
        return tuple(seen)

    def net_devices(self, net: str) -> tuple[tuple[Device, str], ...]:
        """(device, port) pairs attached to ``net``."""
        out = []
        for device in self._devices.values():
            for port in device.PORTS:
                if device.net(port) == net:
                    out.append((device, port))
        return tuple(out)

    def net_map(self) -> dict[str, tuple[tuple[Device, str], ...]]:
        """Net → ``(device, port)`` index, built in one pass.

        The circuit's bipartite device/net adjacency: querying many nets
        through this costs one scan total instead of one :meth:`net_devices`
        scan per net.  Constraint extraction rides on it.
        """
        out: dict[str, list[tuple[Device, str]]] = {}
        for device in self._devices.values():
            for port in device.PORTS:
                out.setdefault(device.net(port), []).append((device, port))
        return {net: tuple(attached) for net, attached in out.items()}

    def total_units(self) -> int:
        """Total number of placeable unit devices."""
        return sum(m.n_units for m in self.mosfets())

    # ------------------------------------------------------------- structure

    def validate(self) -> None:
        """Raise if the netlist is structurally unusable for simulation.

        Checks: at least one device, a ground reference exists, and no net
        is floating with a single connection (dangling).
        """
        if not self._devices:
            raise ValueError(f"circuit {self.name!r} has no devices")
        nets = self.nets()
        if not any(is_ground(n) for n in nets):
            raise ValueError(f"circuit {self.name!r} has no ground net")
        for net in nets:
            attached = self.net_devices(net)
            if len(attached) == 1 and not is_ground(net):
                device, port = attached[0]
                raise ValueError(
                    f"net {net!r} is dangling (only {device.name}.{port})"
                )

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, devices={len(self._devices)}, "
            f"nets={len(self.nets())})"
        )
