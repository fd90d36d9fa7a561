"""Test helpers shared by ``tests/`` and ``benchmarks/``.

The analyses and the evaluator's suites build their assemblers through
one factory, ``compiled_system``.  The ``mna_reference`` fixture swaps
it for the per-device :class:`repro.sim.mna.MnaSystem`,
so the equivalence tests can run any solve — direct or through a
:class:`~repro.eval.evaluator.PlacementEvaluator` — on the reference
assembler and compare it with the compiled engine.
"""

from contextlib import contextmanager

import pytest


@pytest.fixture
def mna_reference(monkeypatch):
    """``with mna_reference():`` runs every scalar solve on ``MnaSystem``.

    Outside the ``with`` block the compiled engine is back in place.
    Placement-batched solves (:mod:`repro.sim.batch`) have no reference
    form and keep running on the compiled engine.
    """
    from repro.eval import suites
    from repro.sim import ac, dc
    from repro.sim.mna import MnaSystem

    @contextmanager
    def use():
        with monkeypatch.context() as patch:
            for module in (ac, dc, suites):
                patch.setattr(module, "compiled_system", MnaSystem)
            yield

    return use


# ---------------------------------------------------------------------------
# Frozen front end: the variation-delta and parasitic-capacitance paths as
# they stood before the evaluator tabulated unit deltas.  Contexts came from
# a stacked occupancy raster (cumsum/accumulate streaks), every unit went
# through ``VariationModel.systematic_units`` on every call, and centroids
# summed each device's units in unit-index order.  The bitwise tests and the
# front-end throughput benchmark compare the live code against this copy.


def _frozen_streaks(occ):
    import numpy as np

    cumulative = np.cumsum(occ, axis=-1)
    at_gaps = np.where(occ, 0, cumulative)
    last_gap = np.maximum.accumulate(at_gaps, axis=-1)
    return cumulative - last_gap


def _frozen_deltas(evaluator, placement):
    """Device deltas from the occupancy raster, unit by unit."""
    from itertools import chain

    import numpy as np

    from repro.variation import DeviceDelta

    n_cols = placement.canvas.cols
    n_rows = placement.canvas.rows
    assignment = placement.as_dict()
    units = list(assignment)
    cells = np.fromiter(
        chain.from_iterable(assignment.values()), dtype=np.intp,
        count=2 * len(units),
    ).reshape(len(units), 2)
    cols = cells[:, 0]
    rows = cells[:, 1]
    pidx = np.zeros(len(units), dtype=np.intp)
    occupancy = np.zeros((1, n_rows, n_cols), dtype=bool)
    occupancy[pidx, rows, cols] = True
    left = _frozen_streaks(occupancy)
    right = _frozen_streaks(occupancy[..., ::-1])[..., ::-1]
    run_l = np.where(cols > 0, left[pidx, rows, np.maximum(cols - 1, 0)], 0)
    run_r = np.where(
        cols < n_cols - 1,
        right[pidx, rows, np.minimum(cols + 1, n_cols - 1)], 0,
    )
    pitch = evaluator.tech.grid_pitch
    x = (cols + 0.5) * pitch
    y = (rows + 0.5) * pitch
    dist = pitch * np.minimum.reduce(
        (cols + 0.5, n_cols - cols - 0.5, rows + 0.5, n_rows - rows - 0.5)
    )
    run_l = run_l.astype(float)
    run_r = run_r.astype(float)

    by_device: dict = {}
    for i, (name, k) in enumerate(units):
        by_device.setdefault(name, []).append((k, i))
    mosfets = evaluator.block.circuit.mosfets()
    order, counts, polarity = [], [], []
    for device in mosfets:
        entries = sorted(by_device[device.name])
        order.extend(i for __, i in entries)
        counts.append(len(entries))
        polarity.extend([device.polarity] * len(entries))
    take = np.asarray(order, dtype=np.intp)
    counts = np.asarray(counts)
    dvth, dbeta = evaluator.variation.systematic_units(
        x[take], y[take], run_l[take], run_r[take], dist[take],
        np.asarray(polarity),
    )
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    dvth_mean = (np.add.reduceat(dvth, starts) / counts).tolist()
    dbeta_mean = (np.add.reduceat(dbeta, starts) / counts).tolist()
    return {
        device.name: DeviceDelta(v, b)
        for device, v, b in zip(mosfets, dvth_mean, dbeta_mean)
    }


def _frozen_parasitic_caps(circuit, placement, tech):
    """Per-net capacitance from per-attachment pins and sorted centroids."""
    from repro.netlist.nets import is_rail
    from repro.route.parasitics import C_FLOOR

    grouped: dict = {}
    for (name, k), cell in placement.as_dict().items():
        grouped.setdefault(name, []).append((k, cell))
    centroids = {}
    for name, cells in grouped.items():
        cells.sort(key=lambda kc: kc[0])
        n = float(len(cells))
        centroids[name] = (sum(c for __, (c, __r) in cells) / n,
                           sum(r for __, (__c, r) in cells) / n)
    attachments: dict = {}
    for device in circuit:
        for port in device.PORTS:
            pins = attachments.setdefault(device.net(port), [])
            if device.is_placeable:
                pins.append(device.name)
    pitch = tech.grid_pitch
    caps = {}
    for net, pins in attachments.items():
        if is_rail(net) or len(pins) < 2:
            continue
        xs = [(centroids[name][0] + 0.5) * pitch for name in pins]
        ys = [(centroids[name][1] + 0.5) * pitch for name in pins]
        length = (max(xs) - min(xs)) + (max(ys) - min(ys))
        caps[net] = C_FLOOR + tech.wire_cap_per_m * length
    return caps


@pytest.fixture(scope="session")
def frozen_front_end():
    """``(deltas(evaluator, placement), parasitic_caps(circuit,
    placement, tech))`` as computed before unit deltas were tabulated."""
    return _frozen_deltas, _frozen_parasitic_caps
