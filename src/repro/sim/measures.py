"""Generic measurement extraction from analysis results.

These are circuit-agnostic signal measures (gain, bandwidth, phase margin,
crossings); the circuit-*specific* measurement protocols (comparator
offset, OTA FOM inputs, mirror mismatch) live in :mod:`repro.eval`.
"""

from __future__ import annotations

import math

import numpy as np


def db(magnitude: np.ndarray | float) -> np.ndarray | float:
    """Magnitude → decibels."""
    return 20.0 * np.log10(np.abs(magnitude))


def dc_gain(transfer: np.ndarray) -> float:
    """Low-frequency gain magnitude (first grid point)."""
    if len(transfer) == 0:
        raise ValueError("empty transfer function")
    return float(np.abs(transfer[0]))


def _interp_log_crossing(freqs: np.ndarray, values: np.ndarray, target: float) -> float | None:
    """Frequency where ``values`` first crosses ``target`` going down."""
    values = np.asarray(values)
    crossings = np.flatnonzero((values[:-1] >= target) & (target > values[1:]))
    if not crossings.size:
        return None
    return log_crossing_at(freqs, values, int(crossings[0]) + 1, target)


def log_crossing_at(
    freqs: np.ndarray, values: np.ndarray, k: int, target: float
) -> float:
    """Frequency where ``values`` crosses ``target`` between grid points
    ``k - 1`` and ``k``."""
    a, b = values[k - 1], values[k]
    # Interpolate in log-frequency for accuracy on dec grids.
    la, lb = math.log10(freqs[k - 1]), math.log10(freqs[k])
    frac = (a - target) / (a - b)
    return 10.0 ** (la + frac * (lb - la))


def bandwidth_3db(freqs: np.ndarray, transfer: np.ndarray) -> float | None:
    """-3 dB bandwidth relative to the low-frequency gain."""
    mags = np.abs(transfer)
    if mags[0] <= 0:
        return None
    return _interp_log_crossing(freqs, mags, mags[0] / math.sqrt(2.0))


def unity_gain_frequency(freqs: np.ndarray, transfer: np.ndarray) -> float | None:
    """Frequency where the gain magnitude crosses 1 (going down)."""
    return _interp_log_crossing(freqs, np.abs(transfer), 1.0)


def phase_margin(freqs: np.ndarray, transfer: np.ndarray) -> float | None:
    """Phase margin [degrees] at the unity-gain frequency.

    Uses the negative-feedback convention: PM = 180° + phase(H) at
    ``|H| = 1``, with the phase unwrapped from low frequency.
    """
    return phase_margin_at(
        freqs, transfer, unity_gain_frequency(freqs, transfer))


def phase_margin_at(
    freqs: np.ndarray, transfer: np.ndarray, f_unity: float | None
) -> float | None:
    """:func:`phase_margin` at an already-known unity-gain frequency
    (``None`` when the gain never crosses 1, as
    :func:`unity_gain_frequency` reports it)."""
    if f_unity is None:
        return None
    return phase_margin_from(
        np.log10(freqs), np.unwrap(np.angle(transfer)), f_unity)


def phase_margin_from(
    log_freqs: np.ndarray, phases: np.ndarray, f_unity: float
) -> float:
    """:func:`phase_margin_at` from the unwrapped ``phases`` [rad] on the
    ``log10`` frequency grid."""
    phase_at_unity = float(np.interp(math.log10(f_unity), log_freqs, phases))
    return 180.0 + math.degrees(phase_at_unity)


def supply_power(voltage: float, branch_current: float) -> float:
    """Power delivered by a supply [W].

    A delivering source's branch current (p → n through the source) is
    negative under the SPICE convention, so delivered power is
    ``-V * I``.
    """
    return -voltage * branch_current
