"""Binding-time validation of variation deltas.

``MosfetParams.with_deltas`` rejects a ``dbeta_rel <= -1`` (it would make
``kp`` non-positive).  The compiled bindings apply deltas as arrays, so
they check the same bound themselves and name the offending device,
instead of letting Newton run on a nonsensical device bank.
"""

import pytest

from repro.netlist.library import current_mirror
from repro.sim import compiled_system, solve_dc
from repro.tech import generic_tech_40
from repro.variation import DeviceDelta

TECH = generic_tech_40()


@pytest.mark.parametrize("dbeta", [-1.0, -1.5])
def test_scalar_bind_rejects_non_positive_kp(dbeta):
    circuit = current_mirror().circuit
    name = circuit.mosfets()[1].name
    deltas = {name: DeviceDelta(dvth=0.0, dbeta_rel=dbeta)}
    with pytest.raises(ValueError, match=name):
        compiled_system(circuit, TECH, deltas)
    with pytest.raises(ValueError, match=name):
        solve_dc(circuit, TECH, deltas=deltas)


def test_batched_bind_rejects_non_positive_kp():
    circuit = current_mirror().circuit
    name = circuit.mosfets()[0].name
    deltas_list = [{}, {name: DeviceDelta(dvth=0.01, dbeta_rel=-1.5)}]
    with pytest.raises(ValueError, match=name):
        compiled_system(circuit, TECH).rebind(deltas_list)


def test_bind_accepts_deltas_above_the_bound():
    circuit = current_mirror().circuit
    name = circuit.mosfets()[0].name
    deltas = {name: DeviceDelta(dvth=0.01, dbeta_rel=-0.5)}
    compiled_system(circuit, TECH, deltas).rebind([deltas, {}])
