"""Global process corners (TT/FF/SS/FS/SF).

Corners are die-to-die shifts — every device of a polarity moves
together — so they cannot create mismatch by themselves; absolute
metrics (gain, delay, power) move with them.  :meth:`ProcessCorner
.deltas` turns a corner into per-device parameter deltas any analysis
accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.circuit import Circuit
from repro.variation.model import DeviceDelta


@dataclass(frozen=True)
class ProcessCorner:
    """Global parameter shifts of one corner.

    Attributes:
        name: corner name ("tt", "ff", ...).
        nmos_dvth: NMOS threshold shift [V] (negative = faster).
        nmos_dbeta: NMOS relative beta shift.
        pmos_dvth: PMOS threshold shift [V] (magnitude space).
        pmos_dbeta: PMOS relative beta shift.
    """

    name: str
    nmos_dvth: float = 0.0
    nmos_dbeta: float = 0.0
    pmos_dvth: float = 0.0
    pmos_dbeta: float = 0.0

    def delta_for(self, polarity: int) -> DeviceDelta:
        """The global delta applied to a device of one polarity."""
        if polarity == +1:
            return DeviceDelta(self.nmos_dvth, self.nmos_dbeta)
        if polarity == -1:
            return DeviceDelta(self.pmos_dvth, self.pmos_dbeta)
        raise ValueError(f"polarity must be +1 or -1, got {polarity}")

    def deltas(self, circuit: Circuit) -> dict[str, DeviceDelta]:
        """Per-device corner deltas for a whole circuit."""
        return {
            m.name: self.delta_for(m.polarity) for m in circuit.mosfets()
        }


# 40 nm-class 3-sigma corner magnitudes: ~30 mV of threshold, ~8 % of beta.
_VT = 0.030
_BETA = 0.08

CORNERS: dict[str, ProcessCorner] = {
    "tt": ProcessCorner("tt"),
    "ff": ProcessCorner("ff", -_VT, +_BETA, -_VT, +_BETA),
    "ss": ProcessCorner("ss", +_VT, -_BETA, +_VT, -_BETA),
    "fs": ProcessCorner("fs", -_VT, +_BETA, +_VT, -_BETA),
    "sf": ProcessCorner("sf", +_VT, -_BETA, -_VT, +_BETA),
}


def corner(name: str) -> ProcessCorner:
    """Look up a corner by name (case-insensitive)."""
    key = name.lower()
    if key not in CORNERS:
        raise KeyError(f"unknown corner {name!r}; have {sorted(CORNERS)}")
    return CORNERS[key]
