"""Device classes: MOSFETs (placeable) and ideal elements (testbench).

Every device exposes its connectivity as an ordered mapping from *port*
names to *net* names.  Only :class:`Mosfet` is placeable; it carries a unit
count (fingers) that the layout package expands into individually-placed
unit devices.  Ideal elements (sources, R, C, controlled sources) exist so
evaluation testbenches are ordinary circuits simulated by the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping


_VALID_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _check_name(name: str) -> None:
    if not name:
        raise ValueError("device name cannot be empty")
    if not set(name.lower()) <= _VALID_NAME_CHARS:
        raise ValueError(f"device name contains invalid characters: {name!r}")


@dataclass(frozen=True)
class Device:
    """Base class: a named device with a port → net mapping.

    Subclasses define their own port sets; the base class only owns the
    name and connectivity plumbing.
    """

    name: str
    conns: Mapping[str, str] = field(default_factory=dict)

    PORTS: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        _check_name(self.name)
        conns = dict(self.conns)
        object.__setattr__(self, "conns", conns)
        try:
            # Connectivity is frozen with the device, so its net tuple
            # is built once here: the compiled engine's structure
            # signature reads it on every binding.
            nets = tuple([conns[p] for p in self.PORTS])
        except KeyError:
            missing = [p for p in self.PORTS if p not in conns]
            raise ValueError(
                f"{self.name}: missing connections for ports {missing}"
            ) from None
        if len(conns) != len(nets):
            extra = [p for p in conns if p not in self.PORTS]
            raise ValueError(f"{self.name}: unknown ports {extra}")
        object.__setattr__(self, "_nets", nets)

    @property
    def nets(self) -> tuple[str, ...]:
        """Nets this device touches, in port order."""
        return self._nets

    def net(self, port: str) -> str:
        """Net connected to ``port``."""
        if port not in self.conns:
            raise KeyError(f"{self.name} has no port {port!r}")
        return self.conns[port]

    @property
    def is_placeable(self) -> bool:
        return False


@dataclass(frozen=True)
class Mosfet(Device):
    """A MOSFET split into ``n_units`` parallel unit fingers.

    Attributes:
        polarity: +1 NMOS, -1 PMOS.
        width: *total* drawn width [m]; each unit is ``width / n_units``.
        length: drawn channel length [m].
        n_units: number of parallel unit devices the placer positions.
    """

    polarity: int = +1
    width: float = 1e-6
    length: float = 0.15e-6
    n_units: int = 1

    PORTS = ("d", "g", "s", "b")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.polarity not in (+1, -1):
            raise ValueError(f"{self.name}: polarity must be +1 or -1")
        if self.width <= 0 or self.length <= 0:
            raise ValueError(f"{self.name}: width and length must be positive")
        if self.n_units < 1:
            raise ValueError(f"{self.name}: n_units must be >= 1")

    @property
    def is_placeable(self) -> bool:
        return True

    @property
    def is_nmos(self) -> bool:
        return self.polarity > 0

    @property
    def unit_width(self) -> float:
        """Drawn width of one unit finger [m]."""
        return self.width / self.n_units


@dataclass(frozen=True)
class Resistor(Device):
    """Ideal resistor between ports ``a`` and ``b``."""

    value: float = 1e3
    PORTS = ("a", "b")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.value <= 0:
            raise ValueError(f"{self.name}: resistance must be positive")


@dataclass(frozen=True)
class Capacitor(Device):
    """Ideal capacitor between ports ``a`` and ``b``."""

    value: float = 1e-15
    PORTS = ("a", "b")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.value <= 0:
            raise ValueError(f"{self.name}: capacitance must be positive")


@dataclass(frozen=True)
class VoltageSource(Device):
    """Ideal voltage source; ``dc`` operating value, ``ac`` small-signal magnitude."""

    dc: float = 0.0
    ac: float = 0.0
    PORTS = ("p", "n")


@dataclass(frozen=True)
class CurrentSource(Device):
    """Ideal current source pushing ``dc`` amps from port ``p`` to port ``n``.

    Sign convention matches SPICE: positive ``dc`` drives current *through
    the source* from ``p`` to ``n`` (i.e. out of the ``n`` terminal into the
    external circuit).
    """

    dc: float = 0.0
    ac: float = 0.0
    PORTS = ("p", "n")


@dataclass(frozen=True)
class Vcvs(Device):
    """Voltage-controlled voltage source (SPICE ``E`` element).

    ``v(p, n) = gain * v(cp, cn)``.  Used to build differential/balun
    testbench drive without extra device physics.
    """

    gain: float = 1.0
    PORTS = ("p", "n", "cp", "cn")
