"""Bit-identity of the fused MOSFET-bank kernel.

:func:`repro.sim.mosfet.terminal_currents_array` evaluates a whole device
bank in one fused pass.  This file freezes the per-branch array formula
it replaced and checks, on int64 views of the float64 results, that both
give the same bits: for one bank (1-D) and for a stack of banks (2-D,
the placement-batched path), including swapped, body-clamped and
|u| > 30 devices.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.sim.mosfet import MosfetArrays, terminal_currents_array

_EXP_MIN = -745.0


def _softplus_ref(u):
    e = np.exp(np.clip(u, _EXP_MIN, 30.0))
    return np.where(u > 30.0, u, np.where(u < -30.0, e, np.log1p(e)))


def _sigmoid_ref(u):
    e = np.exp(np.clip(u, _EXP_MIN, 30.0))
    mid = 1.0 / (1.0 + np.exp(-np.clip(u, -30.0, 30.0)))
    return np.where(u > 30.0, 1.0, np.where(u < -30.0, e, mid))


def _reference(p, vd, vg, vs, vb):
    """The unfused per-branch formula, frozen as a reference."""
    pol = p["polarity"]
    vd_n, vg_n, vs_n, vb_n = pol * vd, pol * vg, pol * vs, pol * vb
    swap = vd_n < vs_n
    vlo = np.where(swap, vd_n, vs_n)
    vgs = vg_n - vlo
    vds = np.abs(vd_n - vs_n)
    vbs = vb_n - vlo
    arg = p["phi"] - vbs
    clamped = arg < 0.05
    arg = np.where(clamped, 0.05, arg)
    sqrt_arg = np.sqrt(arg)
    dvth_dvbs = np.where(clamped, 0.0, -p["gamma"] / (2.0 * sqrt_arg))
    vth = p["vth0"] + p["gamma"] * (sqrt_arg - np.sqrt(p["phi"]))
    u = (vgs - vth) / p["ss"]
    vov = p["ss"] * _softplus_ref(u)
    dvov_du = _sigmoid_ref(u)
    k = p["kp_wl"]
    mod = 1.0 + p["lam"] * vds
    sat = vds >= vov
    id0 = np.where(sat, 0.5 * k * vov * vov,
                   k * (vov * vds - 0.5 * vds * vds))
    did_dvov = np.where(sat, k * vov, k * vds) * mod
    did_dvds = np.where(sat, id0 * p["lam"],
                        k * (vov - vds) * mod + id0 * p["lam"])
    ids_c = id0 * mod
    dgs = did_dvov * dvov_du
    dbs = did_dvov * (-dvov_du) * dvth_dvbs
    dds = did_dvds
    ids = np.where(swap, -ids_c, ids_c)
    gdg = np.where(swap, -dgs, dgs)
    gds_ = np.where(swap, -dds, -(dgs + dds + dbs))
    gdb = np.where(swap, -dbs, dbs)
    gdd = np.where(swap, dgs + dds + dbs, dds)
    return np.stack((pol * ids, gdd, gdg, gds_, gdb)), {
        "swap": swap, "clamped": clamped, "hi": u > 30.0, "lo": u < -30.0,
    }


def _bank(rng, n, batch):
    """Random parameter vectors; ``vth0``/``kp_wl`` get the batch axis."""
    shape = (n,) if batch is None else (batch, n)
    p = {
        "polarity": rng.choice([-1.0, 1.0], n),
        "vth0": rng.uniform(0.2, 0.6, shape),
        "kp_wl": rng.uniform(1e-5, 1e-2, shape),
        "lam": rng.uniform(0.01, 0.5, n),
        "gamma": rng.uniform(0.1, 0.8, n),
        "phi": rng.uniform(0.5, 0.9, n),
        # A small slope pushes |u| past 30 for modest overdrives.
        "ss": rng.choice([0.04, 1e-3, 1e-4], n),
    }
    arrays_ = MosfetArrays(
        **p, sqrt_phi=np.sqrt(p["phi"]), neg_half_gamma=-p["gamma"] / 2.0)
    return p, arrays_


def _check(p, arrays_, v):
    want, branches = _reference(p, *v)
    got = terminal_currents_array(arrays_, v)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return branches


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 12))
    batch = draw(st.sampled_from([None, 1, 3]))
    shape = (4, n) if batch is None else (4, batch, n)
    v = draw(arrays(np.float64, shape,
                    elements=st.floats(-3.0, 3.0, allow_nan=False)))
    return draw(st.integers(0, 2**32 - 1)), batch, v


@given(_cases())
@settings(max_examples=300, deadline=None)
def test_fused_kernel_matches_reference_bitwise(case):
    seed, batch, v = case
    p, arrays_ = _bank(np.random.default_rng(seed), v.shape[-1], batch)
    _check(p, arrays_, v)


def test_random_banks_cover_every_branch_bitwise():
    rng = np.random.default_rng(20)
    seen = {"swap": False, "clamped": False, "hi": False, "lo": False}
    for trial in range(400):
        n = int(rng.integers(1, 25))
        batch = None if trial % 2 else int(rng.integers(1, 9))
        p, arrays_ = _bank(rng, n, batch)
        shape = (4, n) if batch is None else (4, batch, n)
        v = rng.uniform(-1.0, 1.0, shape) * rng.choice([0.5, 2.0, 20.0])
        for name, mask in _check(p, arrays_, v).items():
            seen[name] = seen[name] or bool(mask.any())
    assert all(seen.values()), seen
