"""Backward-Euler transient analysis.

Fixed-step implicit integration: at each time point the capacitor network
is replaced by its companion model (``g = C/h`` in parallel with a history
current) and the resulting nonlinear system is solved with the same damped
Newton used for DC, warm-started from the previous time point.

Sources may be driven by waveforms — callables ``t -> value`` — which is
how the comparator's clock edge is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.netlist.circuit import Circuit
from repro.sim.compiled import compiled_system
from repro.sim.dc import ConvergenceError, _require_source, solve_dc
from repro.tech import Technology
from repro.variation import DeviceDelta

Waveform = Callable[[float], float]


@dataclass
class TransientResult:
    """Waveforms of every node voltage.

    Attributes:
        times: time points [s] (including t = 0).
        node_voltages: voltage arrays by net name, aligned with ``times``.
    """

    times: np.ndarray
    node_voltages: dict[str, np.ndarray]

    def waveform(self, net: str) -> np.ndarray:
        if net not in self.node_voltages:
            raise KeyError(f"no net named {net!r} in transient result")
        return self.node_voltages[net]

    def crossing_time(self, net: str, level: float, rising: bool = True) -> float | None:
        """First time ``net`` crosses ``level`` (linear interpolation)."""
        v = self.waveform(net)
        for k in range(1, len(v)):
            a, b = v[k - 1], v[k]
            crossed = (a < level <= b) if rising else (a > level >= b)
            if crossed:
                frac = (level - a) / (b - a)
                return float(self.times[k - 1] + frac * (self.times[k] - self.times[k - 1]))
        return None


def step_waveform(t_step: float, before: float, after: float, t_rise: float = 50e-12) -> Waveform:
    """A linear-ramp step from ``before`` to ``after`` at ``t_step``."""
    if t_rise <= 0:
        raise ValueError("t_rise must be positive")

    def wave(t: float) -> float:
        if t <= t_step:
            return before
        if t >= t_step + t_rise:
            return after
        return before + (after - before) * (t - t_step) / t_rise

    return wave


def solve_transient(
    circuit: Circuit,
    tech: Technology,
    t_stop: float,
    dt: float,
    deltas: Mapping[str, DeviceDelta] | None = None,
    waveforms: Mapping[str, Waveform] | None = None,
    ic: Mapping[str, float] | None = None,
    max_iter: int = 100,
) -> TransientResult:
    """Integrate the circuit from a DC initial condition.

    One compiled assembler serves the initial DC solve and every time
    step, so the whole run stamps without per-device Python dispatch.

    Args:
        t_stop: final time [s].
        dt: fixed step size [s].
        waveforms: per-source time functions, keyed by the name of a
            voltage or current source; sources not listed keep their DC
            value.  At t = 0 the waveform value (if any) is used
            for the initial DC solve.
        ic: optional initial node voltages overriding the DC solve result
            (net → volts) — useful to seed a latch imbalance.
        max_iter: Newton budget per time step.

    Raises:
        ConvergenceError: if a time step fails to converge.
        KeyError: a ``waveforms`` key names no device.
        ValueError: a ``waveforms`` key is not an independent source.
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise ValueError("need 0 < dt <= t_stop")
    waveforms = dict(waveforms or {})
    for name in waveforms:
        _require_source(circuit, name)

    system = compiled_system(circuit, tech, deltas)
    C = system.capacitance_matrix()

    def source_values_at(t: float) -> dict[str, float]:
        return {name: wave(t) for name, wave in waveforms.items()}

    op = solve_dc(circuit, tech, deltas=deltas,
                  source_values=source_values_at(0.0), system=system)
    x = op.x.copy()
    if ic:
        for net, v in ic.items():
            idx = system.idx(net)
            if idx >= 0:
                x[idx] = v

    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    nets = list(circuit.nets())
    history = {net: np.zeros(n_steps + 1) for net in nets}
    for net in nets:
        history[net][0] = system.voltage(x, net)

    for k in range(1, n_steps + 1):
        t = times[k]
        sources_now = source_values_at(t)
        x_prev = x.copy()
        x_new = x.copy()
        converged = False
        for _ in range(max_iter):
            J, F = system.assemble_dc(x_new, source_values=sources_now)
            # Companion model: i_C = C (v - v_prev) / dt.
            F = F + (C @ (x_new - x_prev)) / dt
            J = J + C / dt
            try:
                dx = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"singular system at t={t:g}") from exc
            step = float(np.max(np.abs(dx))) if dx.size else 0.0
            if step > 0.5:
                dx *= 0.5 / step
            x_new += dx
            if float(np.max(np.abs(dx[: system.n_nodes]))) < 1e-8:
                converged = True
                break
        if not converged:
            raise ConvergenceError(f"transient step at t={t:g} failed to converge")
        x = x_new
        for net in nets:
            history[net][k] = system.voltage(x, net)

    return TransientResult(times=times, node_voltages=history)
