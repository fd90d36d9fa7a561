"""Composable deterministic spatial fields over the die.

Each field maps a position ``(x, y)`` in metres to a scalar parameter
perturbation (e.g. a threshold shift in volts, or a relative beta shift).
Fields are small immutable objects with a single method, :meth:`value`,
so they compose freely through :class:`CompositeField`.

The distinction the whole reproduction leans on:

* a **linear** field is cancelled exactly by common-centroid placement;
* **quadratic / sinusoidal** fields are not — they are the
  "non-linear variation" of the paper's title and the reason unconventional
  placements can win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np


@runtime_checkable
class ScalarField(Protocol):
    """A deterministic scalar field over die coordinates (metres)."""

    def value(self, x: float, y: float) -> float:
        """Field value at position ``(x, y)``."""
        ...


def field_values(
    field_: ScalarField, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Vectorized field evaluation over position arrays.

    Uses the field's ``values`` array method when it has one (every
    built-in field does); third-party fields that only implement the
    scalar :meth:`ScalarField.value` are evaluated point by point, so the
    batched evaluation pipeline accepts them unchanged.
    """
    batch = getattr(field_, "values", None)
    if batch is not None:
        return batch(x, y)
    return np.array([field_.value(xi, yi) for xi, yi in zip(x, y)])


@dataclass(frozen=True)
class LinearGradient:
    """First-order process gradient ``gx * (x - x0) + gy * (y - y0)``.

    This is the component classical symmetric placement is designed to
    cancel.  Slopes are in field-units per metre.
    """

    gx: float
    gy: float
    x0: float = 0.0
    y0: float = 0.0

    def value(self, x: float, y: float) -> float:
        return self.gx * (x - self.x0) + self.gy * (y - self.y0)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.gx * (x - self.x0) + self.gy * (y - self.y0)


@dataclass(frozen=True)
class QuadraticGradient:
    """Second-order bowl/saddle centred at ``(x0, y0)``.

    ``value = cxx*dx^2 + cyy*dy^2 + cxy*dx*dy`` with ``dx = x - x0`` etc.
    Curvatures are in field-units per square metre.  A pure bowl
    (``cxx = cyy > 0, cxy = 0``) survives common-centroid placement intact,
    which is the textbook counter-example to symmetry (McAndrew TCAD'17).
    """

    cxx: float
    cyy: float
    cxy: float = 0.0
    x0: float = 0.0
    y0: float = 0.0

    def value(self, x: float, y: float) -> float:
        dx = x - self.x0
        dy = y - self.y0
        return self.cxx * dx * dx + self.cyy * dy * dy + self.cxy * dx * dy

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dx = x - self.x0
        dy = y - self.y0
        return self.cxx * dx * dx + self.cyy * dy * dy + self.cxy * dx * dy


@dataclass(frozen=True)
class SinusoidalGradient:
    """Periodic variation, e.g. reticle/CMP-induced ripple.

    ``value = amplitude * sin(2*pi*x/wx + phase_x) * sin(2*pi*y/wy + phase_y)``.
    Either wavelength may be ``None`` to make the field one-dimensional in
    the other axis.
    """

    amplitude: float
    wavelength_x: float | None = None
    wavelength_y: float | None = None
    phase_x: float = 0.0
    phase_y: float = 0.0

    def __post_init__(self) -> None:
        if self.wavelength_x is None and self.wavelength_y is None:
            raise ValueError("at least one wavelength must be given")
        for w in (self.wavelength_x, self.wavelength_y):
            if w is not None and w <= 0:
                raise ValueError(f"wavelength must be positive, got {w}")

    def value(self, x: float, y: float) -> float:
        out = self.amplitude
        if self.wavelength_x is not None:
            out *= math.sin(2.0 * math.pi * x / self.wavelength_x + self.phase_x)
        if self.wavelength_y is not None:
            out *= math.sin(2.0 * math.pi * y / self.wavelength_y + self.phase_y)
        return out

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.full(np.shape(x), self.amplitude)
        if self.wavelength_x is not None:
            out = out * np.sin(
                2.0 * math.pi * x / self.wavelength_x + self.phase_x)
        if self.wavelength_y is not None:
            out = out * np.sin(
                2.0 * math.pi * y / self.wavelength_y + self.phase_y)
        return out


@dataclass(frozen=True)
class CompositeField:
    """Sum of component fields.

    ``CompositeField([])`` is the zero field, a convenient default.
    """

    fields: Sequence[ScalarField] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))

    def value(self, x: float, y: float) -> float:
        return sum(f.value(x, y) for f in self.fields)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(x))
        for f in self.fields:
            out = out + field_values(f, x, y)
        return out
