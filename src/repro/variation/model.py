"""The :class:`VariationModel` combinator — positions in, parameter deltas out.

This is the single interface between physical placement and electrical
simulation.  The evaluation pipeline derives a :class:`UnitContext` for each
unit of each device, hands them to the model, and receives per-device
``(dvth, dbeta_rel)`` deltas to apply to the nominal MOSFET parameters.

A device built from several parallel units takes the *average* of its unit
deltas — to first order, parallel identical units average their threshold
and transconductance shifts.  That averaging is what gives placement its
power: by choosing where the units of two matched devices sit, an optimizer
can equalise the averages even under a non-linear field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.variation.gradients import (
    CompositeField,
    LinearGradient,
    QuadraticGradient,
    ScalarField,
    SinusoidalGradient,
    field_values,
)
from repro.variation.lde import LodStressModel, UnitContext, WellProximityModel
from repro.variation.mismatch import PelgromMismatch


@dataclass(frozen=True)
class DeviceDelta:
    """Parameter perturbation of one device instance.

    Attributes:
        dvth: additive threshold shift [V], in magnitude space (applies to
            NMOS and PMOS alike; positive = harder to turn on).
        dbeta_rel: relative transconductance-factor shift (0.01 = +1 %).
    """

    dvth: float = 0.0
    dbeta_rel: float = 0.0

    def __add__(self, other: "DeviceDelta") -> "DeviceDelta":
        return DeviceDelta(self.dvth + other.dvth, self.dbeta_rel + other.dbeta_rel)


@dataclass(frozen=True)
class VariationModel:
    """Systematic fields + LDE models + random mismatch, combined.

    Attributes:
        vth_field: deterministic V_th field over the die [V].
        beta_field: deterministic relative-beta field over the die.
        lod: STI/LOD stress model, or ``None`` to disable.
        wpe: well-proximity model, or ``None`` to disable.
        mismatch: Pelgrom random mismatch, or ``None`` to disable.
    """

    vth_field: ScalarField = CompositeField()
    beta_field: ScalarField = CompositeField()
    lod: LodStressModel | None = None
    wpe: WellProximityModel | None = None
    mismatch: PelgromMismatch | None = None

    def systematic_unit(self, ctx: UnitContext, polarity: int) -> DeviceDelta:
        """Deterministic delta of a single unit at ``ctx``."""
        dvth = self.vth_field.value(ctx.x, ctx.y)
        dbeta = self.beta_field.value(ctx.x, ctx.y)
        if self.lod is not None:
            dvth += self.lod.dvth(ctx, polarity)
            dbeta += self.lod.dbeta_rel(ctx, polarity)
        if self.wpe is not None:
            dvth += self.wpe.dvth(ctx)
        return DeviceDelta(dvth, dbeta)

    def systematic_device(
        self, contexts: Sequence[UnitContext], polarity: int
    ) -> DeviceDelta:
        """Deterministic delta of a device = average over its units."""
        if not contexts:
            raise ValueError("a device needs at least one unit context")
        deltas = [self.systematic_unit(ctx, polarity) for ctx in contexts]
        n = float(len(deltas))
        return DeviceDelta(
            dvth=sum(d.dvth for d in deltas) / n,
            dbeta_rel=sum(d.dbeta_rel for d in deltas) / n,
        )

    def systematic_units(
        self,
        x: np.ndarray,
        y: np.ndarray,
        run_left: np.ndarray,
        run_right: np.ndarray,
        dist_to_edge: np.ndarray,
        polarity: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`systematic_unit` over flat unit arrays.

        Returns per-unit ``(dvth, dbeta_rel)`` arrays.  Each element
        depends only on its own unit's inputs, which is what lets the
        evaluator call this once per batch of new unit contexts and keep
        the results in a table (:class:`~repro.eval.evaluator
        .PlacementEvaluator`); it is the one place field, LOD and WPE
        terms are composed.
        """
        dvth = field_values(self.vth_field, x, y)
        dbeta = field_values(self.beta_field, x, y)
        if self.lod is not None:
            dvth = dvth + self.lod.dvth_array(run_left, run_right)
            dbeta = dbeta + self.lod.dbeta_rel_array(
                run_left, run_right, polarity)
        if self.wpe is not None:
            dvth = dvth + self.wpe.dvth_array(dist_to_edge)
        return dvth, dbeta

    def sample_device(
        self,
        contexts: Sequence[UnitContext],
        polarity: int,
        unit_width: float,
        unit_length: float,
        rng: np.random.Generator,
    ) -> DeviceDelta:
        """Systematic delta plus one random-mismatch draw.

        Each unit draws an independent Pelgrom sample; the device takes the
        average, so larger (more-unit) devices are automatically better
        matched — no special-casing needed.
        """
        base = self.systematic_device(contexts, polarity)
        if self.mismatch is None:
            return base
        draws = [
            self.mismatch.sample_unit(unit_width, unit_length, rng)
            for _ in contexts
        ]
        n = float(len(draws))
        return DeviceDelta(
            dvth=base.dvth + sum(d[0] for d in draws) / n,
            dbeta_rel=base.dbeta_rel + sum(d[1] for d in draws) / n,
        )


def default_variation_model(
    canvas_extent: float,
    kind: str = "nonlinear",
    with_lde: bool = True,
    with_mismatch: bool = False,
) -> VariationModel:
    """The calibrated variation model used by the experiments.

    Field magnitudes are scaled to ``canvas_extent`` (the die region's side
    length in metres) so every circuit sees comparable variation severity:
    the systematic V_th span across the canvas is on the order of 10 mV and
    the beta span on the order of 2 % — representative of 40 nm-class
    within-die variation.

    Args:
        canvas_extent: side length of the placement region [m].
        kind: ``"nonlinear"`` (the paper's regime: linear + quadratic +
            sinusoidal), ``"linear"`` (ablation C's control: pure gradient),
            or ``"none"`` (zero systematic field).
        with_lde: include LOD/WPE neighbourhood effects.
        with_mismatch: include Pelgrom random mismatch.

    Raises:
        ValueError: for an unknown ``kind``.
    """
    if canvas_extent <= 0:
        raise ValueError(f"canvas_extent must be positive, got {canvas_extent}")
    ext = canvas_extent
    centre = ext / 2.0

    linear_vth = LinearGradient(gx=3.0e-3 / ext, gy=2.0e-3 / ext)
    linear_beta = LinearGradient(gx=0.008 / ext, gy=0.005 / ext)

    if kind == "linear":
        vth_field: ScalarField = CompositeField((linear_vth,))
        beta_field: ScalarField = CompositeField((linear_beta,))
    elif kind == "nonlinear":
        vth_field = CompositeField(
            (
                linear_vth,
                QuadraticGradient(
                    cxx=4.0e-3 / ext**2,
                    cyy=3.0e-3 / ext**2,
                    cxy=1.5e-3 / ext**2,
                    x0=0.35 * ext,
                    y0=0.60 * ext,
                ),
                SinusoidalGradient(
                    amplitude=1.5e-3,
                    wavelength_x=0.8 * ext,
                    wavelength_y=1.1 * ext,
                    phase_x=0.7,
                    phase_y=1.9,
                ),
            )
        )
        beta_field = CompositeField(
            (
                linear_beta,
                QuadraticGradient(
                    cxx=0.010 / ext**2,
                    cyy=0.012 / ext**2,
                    cxy=-0.004 / ext**2,
                    x0=0.65 * ext,
                    y0=0.30 * ext,
                ),
                SinusoidalGradient(
                    amplitude=0.004,
                    wavelength_x=1.3 * ext,
                    wavelength_y=0.7 * ext,
                    phase_x=2.1,
                    phase_y=0.4,
                ),
            )
        )
    elif kind == "none":
        vth_field = CompositeField()
        beta_field = CompositeField()
    else:
        raise ValueError(f"unknown variation kind: {kind!r}")

    # Re-centre so the field is zero-mean-ish at the canvas centre; this
    # keeps absolute operating points near nominal and makes mismatch the
    # placement-dependent signal.
    vth_field = CompositeField(
        (vth_field, UniformOffsetFrom(vth_field, centre, centre))
    )
    beta_field = CompositeField(
        (beta_field, UniformOffsetFrom(beta_field, centre, centre))
    )

    return VariationModel(
        vth_field=vth_field,
        beta_field=beta_field,
        lod=LodStressModel() if with_lde else None,
        wpe=WellProximityModel() if with_lde else None,
        mismatch=PelgromMismatch() if with_mismatch else None,
    )


@dataclass(frozen=True)
class UniformOffsetFrom:
    """Constant field equal to minus another field's value at a point.

    Composing ``f + UniformOffsetFrom(f, x0, y0)`` re-centres ``f`` to be
    zero at ``(x0, y0)`` without touching its shape.
    """

    source: ScalarField
    x0: float
    y0: float

    @cached_property
    def _level(self) -> float:
        return -self.source.value(self.x0, self.y0)

    def value(self, x: float, y: float) -> float:
        return self._level

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x), self._level)
