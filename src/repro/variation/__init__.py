"""Layout-dependent effect (LDE) and variation substrate.

The paper's premise (its reference [1], McAndrew TCAD'17) is that systematic
process variation is a *deterministic spatial field* over the die plus
*random* local mismatch.  Symmetric placement cancels the linear part of the
deterministic field exactly — and nothing more.  This package provides:

* :mod:`repro.variation.gradients` — composable spatial fields (linear,
  quadratic, sinusoidal) representing process gradients;
* :mod:`repro.variation.lde` — neighbourhood effects: STI/LOD stress and
  well-proximity (WPE) threshold shifts keyed to a unit's surroundings;
* :mod:`repro.variation.mismatch` — Pelgrom-law random mismatch;
* :mod:`repro.variation.model` — the :class:`VariationModel` combinator that
  turns unit positions into per-device parameter deltas.
"""

from repro.variation.gradients import (
    CompositeField,
    LinearGradient,
    QuadraticGradient,
    ScalarField,
    SinusoidalGradient,
)
from repro.variation.lde import LodStressModel, UnitContext, WellProximityModel
from repro.variation.mismatch import PelgromMismatch
from repro.variation.model import DeviceDelta, VariationModel, default_variation_model

__all__ = [
    "CompositeField",
    "DeviceDelta",
    "LinearGradient",
    "LodStressModel",
    "PelgromMismatch",
    "QuadraticGradient",
    "ScalarField",
    "SinusoidalGradient",
    "UnitContext",
    "VariationModel",
    "WellProximityModel",
    "default_variation_model",
]
