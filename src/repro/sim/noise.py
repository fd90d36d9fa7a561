"""Small-signal noise analysis.

For every noisy element (MOSFET channel thermal + flicker, resistor
thermal) a unit AC current is injected across the element at each
frequency; the squared magnitude of the transfer to the output node,
weighted by the element's noise power spectral density, sums into the
output noise PSD.  This is exactly SPICE's ``.noise`` construction.

Independent sources are treated as AC-quiet (voltage sources short,
current sources open), matching standard noise-analysis semantics.

PSDs are one-sided, in V^2/Hz at the output node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.devices import Mosfet, Resistor
from repro.sim.compiled import GROUND, CompiledSystem, compiled_system
from repro.sim.mosfet import terminal_currents
from repro.tech import Technology
from repro.variation import DeviceDelta

BOLTZMANN = 1.380649e-23
ROOM_TEMPERATURE = 300.0
# Long-channel thermal-noise factor and a representative 40 nm flicker
# coefficient for the simplified level-1 flicker model
#   S_flicker = KF * |Id| / (Cox * W * L * f).
GAMMA_THERMAL = 2.0 / 3.0
KF_DEFAULT = 1.0e-26


@dataclass
class NoiseResult:
    """Output-referred noise of one analysis.

    Attributes:
        freqs: analysis frequencies [Hz].
        output_psd: total output noise PSD [V^2/Hz], aligned with freqs.
        contributions: per-device output PSD [V^2/Hz].
    """

    freqs: np.ndarray
    output_psd: np.ndarray
    contributions: dict[str, np.ndarray]

    def output_rms(self) -> float:
        """Integrated output noise [V rms] over the analysed band.

        Trapezoidal integration of the one-sided PSD over the frequency
        grid — extend the grid if you need the full kT/C limit.
        """
        integrate = getattr(np, "trapezoid", None) or np.trapz
        return float(math.sqrt(integrate(self.output_psd, self.freqs)))

    def dominant_contributor(self, freq_index: int = 0) -> str:
        """Device contributing the most output noise at one grid point."""
        if not self.contributions:
            raise ValueError("no noisy devices in this analysis")
        return max(
            self.contributions,
            key=lambda name: self.contributions[name][freq_index],
        )

    def input_referred_psd(self, gain_mag: np.ndarray) -> np.ndarray:
        """Refer the output PSD to the input through a gain magnitude."""
        gain = np.asarray(gain_mag, dtype=float)
        if gain.shape != self.output_psd.shape:
            raise ValueError("gain grid must match the noise frequency grid")
        return self.output_psd / np.maximum(gain, 1e-30) ** 2


def _device_noise_psd(
    device, system: CompiledSystem, op: Mapping[str, float],
    temperature: float, kf: float, freqs: np.ndarray,
) -> np.ndarray | None:
    """One-sided current-noise PSD [A^2/Hz] across the device, or None."""
    if isinstance(device, Resistor):
        return np.full(len(freqs), 4.0 * BOLTZMANN * temperature / device.value)
    if isinstance(device, Mosfet):
        params = system.mosfet_params(device.name)
        point = terminal_currents(
            params, device.width, device.length,
            op.get(device.net("d"), 0.0), op.get(device.net("g"), 0.0),
            op.get(device.net("s"), 0.0), op.get(device.net("b"), 0.0),
        )
        thermal = 4.0 * BOLTZMANN * temperature * GAMMA_THERMAL * abs(point.gm)
        cox_area = params.cox_area * device.width * device.length
        flicker_num = kf * abs(point.ids)
        return thermal + flicker_num / (cox_area * freqs)
    return None


def _injection_nodes(device) -> tuple[str, str]:
    if isinstance(device, Resistor):
        return device.net("a"), device.net("b")
    return device.net("d"), device.net("s")


def solve_noise(
    circuit: Circuit,
    tech: Technology,
    op_voltages: Mapping[str, float],
    freqs: np.ndarray,
    output_net: str,
    deltas: Mapping[str, DeviceDelta] | None = None,
    temperature: float = ROOM_TEMPERATURE,
    kf: float = KF_DEFAULT,
) -> NoiseResult:
    """Output noise PSD at ``output_net``.

    Args:
        circuit: the netlist (AC source magnitudes are ignored — sources
            are quiet in a noise analysis).
        tech: technology for device models.
        op_voltages: DC operating point by net name.
        freqs: frequency grid [Hz] (must be positive; flicker diverges
            at 0).
        output_net: net whose noise voltage is reported.
        deltas: variation-resolved device parameter shifts.
        temperature: analysis temperature [K].
        kf: flicker coefficient of the simplified level-1 model.

    All frequencies and all injection columns solve as one stacked
    batch.
    """
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs <= 0):
        raise ValueError("noise analysis requires strictly positive frequencies")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")

    system = compiled_system(circuit, tech, deltas)
    if output_net not in system.node_index:
        raise KeyError(f"output net {output_net!r} is ground or unknown")
    out_idx = system.node_index[output_net]

    noisy = []
    for device in circuit:
        psd = _device_noise_psd(device, system, op_voltages, temperature, kf, freqs)
        if psd is not None:
            noisy.append((device, psd))

    contributions = {
        device.name: np.zeros(len(freqs)) for device, __ in noisy
    }
    total = np.zeros(len(freqs))

    # One RHS column per noise source: unit current across the element
    # (frequency-independent, so it is built once).
    B = np.zeros((system.size, len(noisy)), dtype=complex)
    for col, (device, __) in enumerate(noisy):
        node_a, node_b = _injection_nodes(device)
        ia, ib = system.idx(node_a), system.idx(node_b)
        if ia != GROUND:
            B[ia, col] += 1.0
        if ib != GROUND:
            B[ib, col] -= 1.0

    X = system.solve_ac_batch(op_voltages, 2.0 * math.pi * freqs, rhs=B)
    gains_sq = np.abs(X[:, out_idx, :]) ** 2  # (nfreq, n_noisy)
    for col, (device, psd) in enumerate(noisy):
        contribution = gains_sq[:, col] * psd
        contributions[device.name] += contribution
        total += contribution

    return NoiseResult(freqs=freqs, output_psd=total, contributions=contributions)
