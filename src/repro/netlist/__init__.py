"""Analog netlist substrate.

Circuits are flat netlists of devices connected by named nets.  MOSFETs are
the placeable devices; each is split into *units* (fingers) that the placer
positions individually — the paper's environment moves unit devices, with
all units of a group staying connected.

The package also provides the *grouping* layer the paper's hierarchy needs
(primitives such as differential pairs and current mirrors become placement
groups / RL agents) and a library of the three evaluation circuits plus
extras.
"""

#: Export → defining module (PEP 562): exports load on first access, so
#: a library circuit does not load the SPICE reader, the
#: subcircuit flattener or the constraint-extraction pipeline, which only
#: deck ingestion needs.
_LAZY = {
    "Circuit": "repro.netlist.circuit",
    "Capacitor": "repro.netlist.devices",
    "CurrentSource": "repro.netlist.devices",
    "Device": "repro.netlist.devices",
    "Mosfet": "repro.netlist.devices",
    "Resistor": "repro.netlist.devices",
    "VoltageSource": "repro.netlist.devices",
    "Vcvs": "repro.netlist.devices",
    "AnalogBlock": "repro.netlist.library",
    "comparator": "repro.netlist.library",
    "current_mirror": "repro.netlist.library",
    "five_transistor_ota": "repro.netlist.library",
    "folded_cascode_ota": "repro.netlist.library",
    "two_stage_ota": "repro.netlist.library",
    "ConstraintReport": "repro.netlist.constraints",
    "ConstraintSet": "repro.netlist.constraints",
    "ConstraintValidationError": "repro.netlist.constraints",
    "Finding": "repro.netlist.constraints",
    "IngestResult": "repro.netlist.constraints",
    "extract_constraints": "repro.netlist.constraints",
    "ingest_deck": "repro.netlist.constraints",
    "validate_constraints": "repro.netlist.constraints",
    "Flattened": "repro.netlist.hierarchy",
    "HierarchicalCircuit": "repro.netlist.hierarchy",
    "HierarchyError": "repro.netlist.hierarchy",
    "Instance": "repro.netlist.hierarchy",
    "InstanceScope": "repro.netlist.hierarchy",
    "SubcktDef": "repro.netlist.hierarchy",
    "SpiceFormatError": "repro.netlist.spice",
    "from_spice": "repro.netlist.spice",
    "parse_spice": "repro.netlist.spice",
    "to_spice": "repro.netlist.spice",
    "GROUND_NETS": "repro.netlist.nets",
    "is_ground": "repro.netlist.nets",
    "is_supply": "repro.netlist.nets",
    "Group": "repro.netlist.primitives",
    "GroupKind": "repro.netlist.primitives",
    "MatchedPair": "repro.netlist.primitives",
    "SuperGroup": "repro.netlist.primitives",
    "detect_groups": "repro.netlist.primitives",
    "validate_groups": "repro.netlist.primitives",
    "validate_pairs": "repro.netlist.primitives",
    "signal_flow_levels": "repro.netlist.sfg",
    "signal_flow_order": "repro.netlist.sfg",
}

__all__ = [
    "AnalogBlock",
    "Capacitor",
    "Circuit",
    "ConstraintReport",
    "ConstraintSet",
    "ConstraintValidationError",
    "CurrentSource",
    "Device",
    "Finding",
    "Flattened",
    "GROUND_NETS",
    "Group",
    "GroupKind",
    "HierarchicalCircuit",
    "HierarchyError",
    "IngestResult",
    "Instance",
    "InstanceScope",
    "MatchedPair",
    "Mosfet",
    "Resistor",
    "SpiceFormatError",
    "SubcktDef",
    "SuperGroup",
    "Vcvs",
    "VoltageSource",
    "comparator",
    "current_mirror",
    "detect_groups",
    "extract_constraints",
    "five_transistor_ota",
    "folded_cascode_ota",
    "from_spice",
    "ingest_deck",
    "is_ground",
    "is_supply",
    "parse_spice",
    "signal_flow_levels",
    "signal_flow_order",
    "to_spice",
    "two_stage_ota",
    "validate_constraints",
    "validate_groups",
    "validate_pairs",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
