"""Technology description: placement geometry and parasitic coefficients.

A :class:`Technology` bundles everything layout- and extraction-related that
the placer and the routing estimator need to agree on:

* the placement grid pitch (one grid cell holds one *unit device*),
* the physical size of a unit device,
* wiring parasitics per micron for the star-model extraction, and
* the supply voltage and nominal MOSFET parameter sets.

The synthetic 40 nm-class node (:func:`generic_tech_40`) stands in for the
TSMC 40 nm PDK used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tech.mosfet_params import MosfetParams, nominal_nmos_40, nominal_pmos_40


@dataclass(frozen=True)
class Technology:
    """A synthetic process node.

    Attributes:
        name: human-readable node name.
        grid_pitch: placement grid pitch [m]; one unit device per cell.
        unit_width: drawn width of one unit device (one finger) [m].
        unit_length: drawn gate length of one unit device [m].
        vdd: nominal supply voltage [V].
        wire_res_per_m: wiring resistance per metre [ohm/m].
        wire_cap_per_m: wiring capacitance per metre [F/m].
        via_res: resistance of one via [ohm].
        nmos: nominal NMOS parameters.
        pmos: nominal PMOS parameters.
    """

    name: str
    grid_pitch: float
    unit_width: float
    unit_length: float
    vdd: float
    wire_res_per_m: float
    wire_cap_per_m: float
    via_res: float
    nmos: MosfetParams = field(default_factory=nominal_nmos_40)
    pmos: MosfetParams = field(default_factory=nominal_pmos_40)

    def __post_init__(self) -> None:
        if self.grid_pitch <= 0:
            raise ValueError(f"grid_pitch must be positive, got {self.grid_pitch}")
        if self.unit_width <= 0 or self.unit_length <= 0:
            raise ValueError("unit device dimensions must be positive")
        if self.vdd <= 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        if not self.nmos.is_nmos:
            raise ValueError("nmos parameter set must have polarity +1")
        if not self.pmos.is_pmos:
            raise ValueError("pmos parameter set must have polarity -1")

    def params_for(self, polarity: int) -> MosfetParams:
        """Nominal parameter set for a device polarity (+1 NMOS, -1 PMOS)."""
        if polarity == +1:
            return self.nmos
        if polarity == -1:
            return self.pmos
        raise ValueError(f"polarity must be +1 or -1, got {polarity}")

    def cell_area(self) -> float:
        """Area of one placement grid cell [m^2]."""
        return self.grid_pitch * self.grid_pitch


def generic_tech_40() -> Technology:
    """The synthetic 40 nm-class technology used throughout the repo.

    Numbers are chosen to be representative of a 40 nm bulk CMOS node:
    1.1 V supply, ~1 um placement pitch for analog unit cells, copper
    wiring around 0.8 ohm/um and 0.2 fF/um.
    """
    return Technology(
        name="generic-40nm",
        grid_pitch=1.0e-6,
        unit_width=1.0e-6,
        unit_length=0.15e-6,
        vdd=1.1,
        wire_res_per_m=0.8e6,
        wire_cap_per_m=0.2e-9,
        via_res=2.0,
    )
