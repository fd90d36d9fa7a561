"""Smoothed square-law MOSFET model with analytic derivatives.

The model is a SPICE level-1 square law made Newton-friendly:

* the overdrive is smoothed with a softplus of scale
  ``subthreshold_slope``, which gives a continuous, strictly-positive
  transconductance and an idealised exponential subthreshold region;
* triode and saturation match in value and first derivative at
  ``vds = vov`` (a property the level-1 model already has);
* drain/source are swapped symmetrically for ``vds < 0``;
* PMOS devices are evaluated as NMOS in negated-voltage space.

The public entry point, :func:`terminal_currents`, returns the drain
current *and its partial derivatives with respect to each terminal
voltage*, which makes MNA stamping uniform and sign-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.tech import MosfetParams


# Gate-overlap capacitance per metre of width and diffusion length used for
# junction capacitance; representative 40 nm-class values.
C_OVERLAP_PER_M = 0.25e-9
L_DIFF = 0.2e-6


def _softplus(u: float) -> float:
    if u > 30.0:
        return u
    if u < -30.0:
        return math.exp(u)
    return math.log1p(math.exp(u))


def _sigmoid(u: float) -> float:
    if u > 30.0:
        return 1.0
    if u < -30.0:
        return math.exp(u)
    return 1.0 / (1.0 + math.exp(-u))


@dataclass(frozen=True)
class OpPoint:
    """Large- and small-signal state of one MOSFET at a bias point.

    ``ids`` flows drain → source (negative for a conducting PMOS).  The
    conductances are partial derivatives with respect to the *terminal*
    voltages (d, g, s, b) — already polarity- and swap-corrected.
    """

    ids: float
    gdd: float
    gdg: float
    gds_: float
    gdb: float
    vth: float
    vov: float
    saturated: bool

    @property
    def gm(self) -> float:
        """Conventional transconductance (d ids / d vgs)."""
        return self.gdg

    @property
    def gds(self) -> float:
        """Conventional output conductance (d ids / d vds at fixed vgs, vbs).

        With terminal partials, ``d ids/d vds`` at fixed vgs/vbs equals the
        drain partial ``gdd``.
        """
        return self.gdd


def _nmos_core(
    params: MosfetParams, width: float, length: float,
    vgs: float, vds: float, vbs: float,
) -> tuple[float, float, float, float, float, float, bool]:
    """Square-law core for vds >= 0 in NMOS space.

    Returns ``(ids, did_dvgs, did_dvds, did_dvbs, vth, vov, saturated)``.
    """
    # Body effect, with the sqrt argument clamped for robustness.
    arg = params.phi - vbs
    if arg < 0.05:
        arg = 0.05
        dvth_dvbs = 0.0
    else:
        dvth_dvbs = -params.gamma / (2.0 * math.sqrt(arg))
    vth = params.vth0 + params.gamma * (math.sqrt(arg) - math.sqrt(params.phi))

    ss = params.subthreshold_slope
    u = (vgs - vth) / ss
    vov = ss * _softplus(u)
    dvov_du = _sigmoid(u)  # d vov / d vgs; d vov / d vth = -dvov_du

    k = params.kp * width / length
    lam = params.lam_at(length)
    mod = 1.0 + lam * vds

    saturated = vds >= vov
    if saturated:
        id0 = 0.5 * k * vov * vov
        did_dvov = k * vov * mod
        did_dvds = id0 * lam
    else:
        id0 = k * (vov * vds - 0.5 * vds * vds)
        did_dvov = k * vds * mod
        did_dvds = k * (vov - vds) * mod + id0 * lam
    ids = id0 * mod

    did_dvgs = did_dvov * dvov_du
    did_dvbs = did_dvov * (-dvov_du) * dvth_dvbs
    return ids, did_dvgs, did_dvds, did_dvbs, vth, vov, saturated


def _nmos_terminal(
    params: MosfetParams, width: float, length: float,
    vd: float, vg: float, vs: float, vb: float,
) -> OpPoint:
    """NMOS-space evaluation with symmetric drain/source swap."""
    if vd >= vs:
        ids, dgs, dds, dbs, vth, vov, sat = _nmos_core(
            params, width, length, vg - vs, vd - vs, vb - vs
        )
        # ids(vgs, vds, vbs) with vgs = vg - vs etc.
        gdd = dds
        gdg = dgs
        gdb = dbs
        gds_ = -(dgs + dds + dbs)
        return OpPoint(ids, gdd, gdg, gds_, gdb, vth, vov, sat)
    # Swap: evaluate with roles of d and s exchanged, then negate current.
    ids_, dgs, dds, dbs, vth, vov, sat = _nmos_core(
        params, width, length, vg - vd, vs - vd, vb - vd
    )
    ids = -ids_
    # ids = -f(vg - vd, vs - vd, vb - vd)
    gdg = -dgs
    gds_ = -dds
    gdb = -dbs
    gdd = dgs + dds + dbs
    return OpPoint(ids, gdd, gdg, gds_, gdb, vth, vov, sat)


def terminal_currents(
    params: MosfetParams, width: float, length: float,
    vd: float, vg: float, vs: float, vb: float,
) -> OpPoint:
    """Drain current and terminal-voltage partials for either polarity.

    For PMOS, all node voltages are negated, the device is evaluated as an
    NMOS, and the current is negated back; the partials keep their sign
    (chain rule through the double negation).
    """
    if params.is_nmos:
        return _nmos_terminal(params, width, length, vd, vg, vs, vb)
    op = _nmos_terminal(params, width, length, -vd, -vg, -vs, -vb)
    return OpPoint(
        ids=-op.ids,
        gdd=op.gdd,
        gdg=op.gdg,
        gds_=op.gds_,
        gdb=op.gdb,
        vth=op.vth,
        vov=op.vov,
        saturated=op.saturated,
    )


@dataclass(frozen=True)
class MosfetCaps:
    """Bias-independent small-signal capacitances of one device [F]."""

    cgs: float
    cgd: float
    cdb: float
    csb: float


# -------------------------------------------------- vectorized evaluation
#
# The compiled MNA engine evaluates every MOSFET of a circuit in one numpy
# pass instead of one Python call per device.  The array model below is the
# exact smoothed square law above, restated branch-free: the drain/source
# swap becomes an index-free select (for either orientation the core
# arguments are measured from the lower of the two diffusion terminals),
# and the saturation/triode and softplus/sigmoid pieces become
# elementwise selections over the same piecewise formulas.  On the 5-20
# device banks of the library circuits numpy's per-call overhead, not
# arithmetic, is the cost, so the kernel makes as few calls as it can
# while staying bit-identical to the per-branch formulas.


@dataclass(frozen=True)
class MosfetArrays:
    """Per-device parameter vectors for the array model.

    One entry per MOSFET, all variation deltas already applied.  ``kp_wl``
    folds the geometry in (``kp * width / length``) and ``lam`` is already
    scaled to the actual channel length, so the evaluation itself needs no
    per-device geometry.  ``sqrt_phi`` and ``neg_half_gamma`` are the
    bias-independent pieces of the body effect.  Built by the compiled
    engine's device bank (:class:`repro.sim.compiled._DeviceBank`).
    """

    polarity: np.ndarray
    vth0: np.ndarray
    kp_wl: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    ss: np.ndarray
    sqrt_phi: np.ndarray
    neg_half_gamma: np.ndarray


# exp() underflows to 0.0 below roughly -745; clipping there keeps the
# array path free of warnings while matching math.exp semantics exactly.
_EXP_MIN = -745.0

# A swapped device's outputs are the negated normal-orientation outputs
# with the drain and source partials exchanged (see _nmos_terminal).
_SWAP_ROWS = np.array([0, 3, 2, 1, 4])


def terminal_currents_array(pa: MosfetArrays, v: np.ndarray) -> np.ndarray:
    """Vectorized :func:`terminal_currents` over a device bank.

    Args:
        pa: the bank's parameter vectors (``vth0``/``kp_wl`` may carry
            leading batch axes; the rest broadcast against them).
        v: terminal voltages stacked ``(d, g, s, b)`` along the first
            axis, shape ``(4, ..., n_devices)``.

    Returns:
        ``(5, ..., n_devices)`` rows ``(ids, gdd, gdg, gds_, gdb)`` with
        the same polarity and drain/source-swap handling as the scalar
        model.  Selections use ``np.copyto(..., where=)`` on fresh
        arrays, which picks exactly what ``np.where`` would.
    """
    # PMOS devices are evaluated as NMOS in negated-voltage space.
    vd, vg, vs, vb = pa.polarity * v
    swap = vd < vs
    # Core arguments referenced to the lower diffusion terminal: this is
    # (vgs, vds, vbs) for the normal orientation and the swapped triple
    # (vg-vd, vs-vd, vb-vd) when the roles of d and s are exchanged.
    vlo = np.where(swap, vd, vs)
    vds = np.abs(vd - vs)

    # Body effect with the clamped sqrt argument.
    arg = pa.phi - (vb - vlo)
    clamped = arg < 0.05
    sqrt_arg = np.sqrt(np.maximum(arg, 0.05))
    dvth_dvbs = pa.neg_half_gamma / sqrt_arg
    np.copyto(dvth_dvbs, 0.0, where=clamped)
    vth = pa.vth0 + pa.gamma * (sqrt_arg - pa.sqrt_phi)

    # Softplus overdrive and its sigmoid slope share exp(u) and the
    # |u| > 30 masks.
    u = ((vg - vlo) - vth) / pa.ss
    hi = u > 30.0
    lo = u < -30.0
    u_top = np.minimum(np.maximum(u, _EXP_MIN), 30.0)
    e = np.exp(u_top)
    softplus = np.log1p(e)
    np.copyto(softplus, e, where=lo)
    np.copyto(softplus, u, where=hi)
    vov = pa.ss * softplus
    dvov_du = 1.0 / (1.0 + np.exp(-np.maximum(u_top, -30.0)))
    np.copyto(dvov_du, e, where=lo)
    np.copyto(dvov_du, 1.0, where=hi)

    k = pa.kp_wl
    lam = pa.lam
    mod = 1.0 + lam * vds
    sat = vds >= vov
    id0 = k * (vov * vds - 0.5 * vds * vds)
    np.copyto(id0, 0.5 * k * vov * vov, where=sat)
    id0_lam = id0 * lam
    did_dvov = k * np.where(sat, vov, vds) * mod

    # Normal-orientation outputs, stacked: ids, gdd, gdg, gds_, gdb.
    block = np.empty((5,) + vds.shape)
    np.multiply(id0, mod, out=block[0])
    dds = np.add(k * (vov - vds) * mod, id0_lam, out=block[1])
    np.copyto(dds, id0_lam, where=sat)
    dgs = np.multiply(did_dvov, dvov_du, out=block[2])
    dbs = np.multiply(-dgs, dvth_dvbs, out=block[4])
    np.negative(dgs + dds + dbs, out=block[3])

    # Map back through the swap (see _nmos_terminal), then negate the
    # PMOS current back; the partials keep their sign.
    np.copyto(block, -block.take(_SWAP_ROWS, axis=0), where=swap)
    np.multiply(pa.polarity, block[0], out=block[0])
    return block


def device_caps(params: MosfetParams, width: float, length: float) -> MosfetCaps:
    """Geometry-based capacitance estimate (saturation-region split).

    Channel charge goes 2/3 to the source in saturation; overlap adds to
    both gate caps; junction caps scale with diffusion area.
    """
    c_channel = params.cox_area * width * length
    c_ov = C_OVERLAP_PER_M * width
    c_junction = params.cj_area * width * L_DIFF
    return MosfetCaps(
        cgs=(2.0 / 3.0) * c_channel + c_ov,
        cgd=c_ov,
        cdb=c_junction,
        csb=c_junction,
    )
