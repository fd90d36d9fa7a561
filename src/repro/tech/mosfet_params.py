"""Nominal MOSFET model parameters for the synthetic technology.

The simulator (:mod:`repro.sim.mosfet`) uses a smoothed square-law model, so
the parameter set here is deliberately compact: threshold voltage, process
transconductance, channel-length modulation, body effect and the few
capacitance coefficients the AC analysis needs.

Layout-dependent effects enter as *deltas* applied on top of these nominal
values (see :mod:`repro.variation`), never by editing the nominal set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MosfetParams:
    """Nominal parameters of one MOSFET flavour (NMOS or PMOS).

    Units are SI throughout: volts, amps, farads, metres.

    Attributes:
        polarity: ``+1`` for NMOS, ``-1`` for PMOS.
        vth0: zero-bias threshold voltage magnitude [V].
        kp: process transconductance ``mu * Cox`` [A/V^2].
        lam: channel-length modulation coefficient at ``l_ref`` [1/V].
        l_ref: reference channel length at which ``lam`` is quoted [m].
        gamma: body-effect coefficient [sqrt(V)].
        phi: surface potential ``2 * phi_F`` [V].
        cox_area: gate-oxide capacitance per unit area [F/m^2].
        cj_area: junction capacitance per unit drain/source area [F/m^2].
        subthreshold_slope: smoothing scale of the effective-overdrive
            softplus [V]; also sets the (idealised) subthreshold swing.
    """

    polarity: int
    vth0: float
    kp: float
    lam: float
    l_ref: float
    gamma: float
    phi: float
    cox_area: float
    cj_area: float
    subthreshold_slope: float

    def __post_init__(self) -> None:
        if self.polarity not in (+1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")
        if self.vth0 <= 0:
            raise ValueError(f"vth0 must be a positive magnitude, got {self.vth0}")
        if self.kp <= 0:
            raise ValueError(f"kp must be positive, got {self.kp}")
        if self.subthreshold_slope <= 0:
            raise ValueError("subthreshold_slope must be positive")

    @property
    def is_nmos(self) -> bool:
        return self.polarity > 0

    @property
    def is_pmos(self) -> bool:
        return self.polarity < 0

    def lam_at(self, length: float) -> float:
        """Channel-length modulation scaled to an actual gate length.

        Shorter channels modulate more strongly; the classic first-order
        scaling is ``lam ~ 1 / L``.
        """
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        return self.lam * (self.l_ref / length)

    def with_deltas(self, dvth: float = 0.0, dbeta_rel: float = 0.0) -> "MosfetParams":
        """Return a copy with a threshold shift and relative beta shift.

        This is the single entry point through which variation models
        perturb a device instance.

        Args:
            dvth: additive threshold-voltage shift [V] (magnitude space —
                positive makes either flavour harder to turn on).
            dbeta_rel: relative change of ``kp`` (e.g. ``0.01`` = +1 %).
        """
        if dbeta_rel <= -1.0:
            raise ValueError(f"dbeta_rel would make kp non-positive: {dbeta_rel}")
        return replace(self, vth0=self.vth0 + dvth, kp=self.kp * (1.0 + dbeta_rel))


def nominal_nmos_40() -> MosfetParams:
    """NMOS parameter set for the synthetic 40 nm-class node."""
    return MosfetParams(
        polarity=+1,
        vth0=0.45,
        kp=4.0e-4,
        lam=0.20,
        l_ref=40e-9,
        gamma=0.35,
        phi=0.80,
        cox_area=1.35e-2,
        cj_area=1.0e-3,
        subthreshold_slope=0.030,
    )


def nominal_pmos_40() -> MosfetParams:
    """PMOS parameter set for the synthetic 40 nm-class node."""
    return MosfetParams(
        polarity=-1,
        vth0=0.42,
        kp=1.6e-4,
        lam=0.25,
        l_ref=40e-9,
        gamma=0.30,
        phi=0.80,
        cox_area=1.35e-2,
        cj_area=1.1e-3,
        subthreshold_slope=0.032,
    )
