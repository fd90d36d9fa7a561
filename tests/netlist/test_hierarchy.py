"""Hierarchical netlists: subckt definitions, flattening, scopes, errors."""

import pytest

from repro.netlist import (
    CurrentSource,
    Flattened,
    HierarchicalCircuit,
    HierarchyError,
    Instance,
    Mosfet,
    SubcktDef,
    VoltageSource,
)


def _nmos(name, d, g, s):
    return Mosfet(name, {"d": d, "g": g, "s": s, "b": "gnd"},
                  polarity=+1, width=2e-6, length=0.2e-6, n_units=2)


def _half_cell():
    """A one-device subcircuit: drain on a port, source on an internal net."""
    return SubcktDef(
        name="half",
        ports=("inp", "out"),
        devices=(_nmos("m1", "out", "inp", "mid"), _nmos("m2", "mid", "inp", "gnd")),
    )


def _two_instance_circuit():
    hc = HierarchicalCircuit("pseudo_diff")
    hc.add_subckt(_half_cell())
    hc.add(VoltageSource("vvdd", {"p": "vdd", "n": "gnd"}, dc=1.1))
    hc.add_instance(Instance("a", "half", ("ina", "oa")))
    hc.add_instance(Instance("b", "half", ("inb", "ob")))
    return hc


class TestFlatten:
    def test_devices_get_instance_prefixed_names(self):
        flat = _two_instance_circuit().flatten()
        names = {d.name for d in flat.circuit}
        assert {"a_m1", "a_m2", "b_m1", "b_m2", "vvdd"} == names

    def test_ports_bind_to_parent_nets(self):
        flat = _two_instance_circuit().flatten()
        assert flat.circuit.device("a_m1").net("g") == "ina"
        assert flat.circuit.device("a_m1").net("d") == "oa"
        assert flat.circuit.device("b_m1").net("g") == "inb"

    def test_internal_nets_are_prefixed(self):
        flat = _two_instance_circuit().flatten()
        assert flat.circuit.device("a_m1").net("s") == "a_mid"
        assert flat.circuit.device("b_m2").net("d") == "b_mid"

    def test_rails_pass_through_unprefixed(self):
        flat = _two_instance_circuit().flatten()
        assert flat.circuit.device("a_m2").net("s") == "gnd"
        assert flat.circuit.device("b_m2").net("b") == "gnd"

    def test_scopes_record_each_instance(self):
        flat = _two_instance_circuit().flatten()
        assert [s.path for s in flat.scopes] == ["a", "b"]
        assert flat.scopes[0].subckt == "half"
        assert flat.scopes[0].devices == ("a_m1", "a_m2")

    def test_flat_circuit_keeps_top_devices(self):
        flat = _two_instance_circuit().flatten()
        assert flat.circuit.device("vvdd").net("p") == "vdd"

    def test_nested_instances_join_paths_with_underscore(self):
        hc = HierarchicalCircuit("nested")
        hc.add_subckt(SubcktDef("leaf", ("t",),
                                devices=(_nmos("m1", "t", "t", "gnd"),)))
        hc.add_subckt(SubcktDef("mid", ("t",),
                                instances=(Instance("inner", "leaf", ("t",)),)))
        hc.add_instance(Instance("outer", "mid", ("top",)))
        flat = hc.flatten()
        assert {d.name for d in flat.circuit} == {"outer_inner_m1"}
        assert [s.path for s in flat.scopes] == ["outer", "outer_inner"]

    def test_flatten_of_flat_circuit_is_identity(self):
        hc = HierarchicalCircuit("plain")
        hc.add(_nmos("m1", "d1", "g1", "gnd"))
        flat = hc.flatten()
        assert isinstance(flat, Flattened) and flat.scopes == ()
        assert {d.name for d in flat.circuit} == {"m1"}


class TestErrors:
    def test_unknown_subckt(self):
        hc = HierarchicalCircuit("bad")
        hc.add_instance(Instance("a", "nope", ("n1",)))
        with pytest.raises(HierarchyError, match="unknown subcircuit"):
            hc.flatten()

    def test_port_count_mismatch(self):
        hc = HierarchicalCircuit("bad")
        hc.add_subckt(_half_cell())
        hc.add_instance(Instance("a", "half", ("only_one",)))
        with pytest.raises(HierarchyError, match="2 ports"):
            hc.flatten()

    def test_recursive_instantiation(self):
        hc = HierarchicalCircuit("bad")
        hc.add_subckt(SubcktDef("loop", ("t",),
                                instances=(Instance("again", "loop", ("t",)),)))
        hc.add_instance(Instance("a", "loop", ("top",)))
        with pytest.raises(HierarchyError, match="recursive"):
            hc.flatten()

    def test_flat_name_collision(self):
        hc = HierarchicalCircuit("bad")
        hc.add_subckt(_half_cell())
        hc.add(_nmos("a_m1", "x", "y", "gnd"))  # collides with instance a's m1
        hc.add_instance(Instance("a", "half", ("ina", "oa")))
        with pytest.raises(HierarchyError):
            hc.flatten()

    def test_duplicate_subckt_definition(self):
        hc = HierarchicalCircuit("bad")
        hc.add_subckt(_half_cell())
        with pytest.raises(HierarchyError, match="duplicate"):
            hc.add_subckt(_half_cell())

    def test_instance_needs_bindings(self):
        with pytest.raises(HierarchyError, match="binds no nets"):
            Instance("a", "half", ())

    def test_subckt_needs_ports(self):
        with pytest.raises(HierarchyError, match="no ports"):
            SubcktDef("p0", ())

    def test_subckt_rejects_duplicate_element_names(self):
        with pytest.raises(HierarchyError, match="repeats an element"):
            SubcktDef("dup", ("t",),
                      devices=(_nmos("m1", "t", "t", "gnd"),
                               _nmos("m1", "t", "t", "gnd")))


class TestEquality:
    def test_structurally_equal(self):
        assert _two_instance_circuit() == _two_instance_circuit()

    def test_different_instances_differ(self):
        a, b = _two_instance_circuit(), _two_instance_circuit()
        b.add_instance(Instance("c", "half", ("inc", "oc")))
        assert a != b

    def test_current_source_inside_subckt(self):
        # Non-MOS devices flatten with the same renaming rules.
        hc = HierarchicalCircuit("isrc")
        hc.add_subckt(SubcktDef("cell", ("t",), devices=(
            CurrentSource("ib", {"p": "t", "n": "gnd"}, dc=1e-6),)))
        hc.add_instance(Instance("u", "cell", ("node",)))
        flat = hc.flatten()
        assert flat.circuit.device("u_ib").net("p") == "node"
