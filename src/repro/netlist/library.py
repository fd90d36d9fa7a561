"""The evaluation circuits: current mirror, comparator, OTAs.

Each builder returns an :class:`AnalogBlock` — the bundle the rest of the
library consumes: the netlist (including its ideal-element testbench), the
placement groups, the matched pairs whose mismatch matters, a placement
canvas size, and the parameters the measurement suite needs.

Circuit choices mirror the paper's Section III: a medium current mirror
(CM), a dynamic comparator (COMP), and a folded-cascode OTA — plus a 5T OTA
used by tests and examples.  Sizes target the synthetic 40 nm node
(:func:`repro.tech.generic_tech_40`): V_DD = 1.1 V, unit widths of 1-2 um.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.circuit import Circuit
from repro.netlist.devices import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.netlist.primitives import (
    Group,
    GroupKind,
    MatchedPair,
    SuperGroup,
    validate_groups,
    validate_pairs,
)


@dataclass(frozen=True)
class AnalogBlock:
    """A circuit plus everything the placement flow needs to know about it.

    Attributes:
        name: block name (also used in reports).
        kind: measurement-suite selector — ``"cm"``, ``"comp"`` or ``"ota"``.
        circuit: the netlist, testbench elements included.
        groups: placement groups (partition of the placeable devices).
        pairs: matched pairs for mismatch accounting.
        canvas: placement grid size ``(cols, rows)``.
        params: measurement parameters (supply, common mode, loads, clock).
        input_nets: signal inputs, for signal-flow ordering.
        output_nets: signal outputs.
        super_groups: symmetric super-groups from hierarchical extraction
            (matched subcircuit instances); empty for flat circuits.
    """

    name: str
    kind: str
    circuit: Circuit
    groups: tuple[Group, ...]
    pairs: tuple[MatchedPair, ...]
    canvas: tuple[int, int]
    params: dict = field(default_factory=dict)
    input_nets: tuple[str, ...] = ()
    output_nets: tuple[str, ...] = ()
    super_groups: tuple[SuperGroup, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("cm", "comp", "ota"):
            raise ValueError(f"unknown block kind: {self.kind!r}")
        cols, rows = self.canvas
        if cols < 1 or rows < 1:
            raise ValueError(f"canvas must be positive, got {self.canvas}")
        if cols * rows < self.circuit.total_units():
            raise ValueError(
                f"canvas {self.canvas} cannot hold {self.circuit.total_units()} units"
            )
        validate_groups(self.circuit, list(self.groups))
        validate_pairs(self.circuit, list(self.groups), list(self.pairs),
                       list(self.super_groups))


VDD = 1.1


def current_mirror(units_per_device: int = 4) -> AnalogBlock:
    """Medium current-distribution mirror (the paper's CM testcase).

    An NMOS mirror bank (reference + two outputs) with one output folded up
    through a PMOS mirror — five matched transistors in two mirror groups.
    Static mismatch is the deviation of the two delivered currents from the
    reference.
    """
    iref = 20e-6
    ckt = Circuit("current_mirror")
    # NMOS mirror bank: diode reference plus two outputs.
    nmos_kw = dict(polarity=+1, width=units_per_device * 1e-6, length=0.5e-6,
                   n_units=units_per_device)
    ckt.add(Mosfet("mref", {"d": "bias", "g": "bias", "s": "gnd", "b": "gnd"}, **nmos_kw))
    ckt.add(Mosfet("mo1", {"d": "n1", "g": "bias", "s": "gnd", "b": "gnd"}, **nmos_kw))
    ckt.add(Mosfet("mo2", {"d": "n2", "g": "bias", "s": "gnd", "b": "gnd"}, **nmos_kw))
    # PMOS mirror folding mo1's current up to the block output.
    pmos_kw = dict(polarity=-1, width=units_per_device * 2e-6, length=0.5e-6,
                   n_units=units_per_device)
    ckt.add(Mosfet("pref", {"d": "n1", "g": "n1", "s": "vdd", "b": "vdd"}, **pmos_kw))
    ckt.add(Mosfet("po1", {"d": "out", "g": "n1", "s": "vdd", "b": "vdd"}, **pmos_kw))
    # Testbench: supply, reference current, output clamps for current probing.
    ckt.add(VoltageSource("vvdd", {"p": "vdd", "n": "gnd"}, dc=VDD))
    ckt.add(CurrentSource("iref", {"p": "vdd", "n": "bias"}, dc=iref))
    ckt.add(VoltageSource("vprobe2", {"p": "n2", "n": "gnd"}, dc=0.55))
    ckt.add(VoltageSource("vprobeout", {"p": "out", "n": "gnd"}, dc=0.55))

    groups = (
        Group("nmirror", GroupKind.CURRENT_MIRROR, ("mref", "mo1", "mo2")),
        Group("pmirror", GroupKind.CURRENT_MIRROR, ("pref", "po1")),
    )
    pairs = (
        MatchedPair("mref", "mo1", weight=2.0),
        MatchedPair("mref", "mo2", weight=2.0),
        MatchedPair("mo1", "mo2"),
        MatchedPair("pref", "po1", weight=2.0),
    )
    return AnalogBlock(
        name="CM",
        kind="cm",
        circuit=ckt,
        groups=groups,
        pairs=pairs,
        canvas=(8, 7),
        params={"iref": iref, "vdd": VDD,
                "probe_sources": ("vprobe2", "vprobeout")},
        input_nets=("bias",),
        output_nets=("n2", "out"),
    )


def comparator(units_input_pair: int = 4) -> AnalogBlock:
    """StrongARM dynamic comparator (the paper's COMP testcase).

    Clocked regenerative latch: tail + input pair + cross-coupled NMOS and
    PMOS pairs + four precharge switches.  Offset is the dominant
    LDE-sensitive metric; delay, power and area enter the FOM.
    """
    vcm = 0.70
    ckt = Circuit("comparator")
    ckt.add(Mosfet("mtail", {"d": "tail", "g": "clk", "s": "gnd", "b": "gnd"},
                   polarity=+1, width=8e-6, length=0.2e-6, n_units=4))
    inp_kw = dict(polarity=+1, width=units_input_pair * 1e-6, length=0.2e-6,
                  n_units=units_input_pair)
    ckt.add(Mosfet("m1", {"d": "p1", "g": "vip", "s": "tail", "b": "gnd"}, **inp_kw))
    ckt.add(Mosfet("m2", {"d": "p2", "g": "vin", "s": "tail", "b": "gnd"}, **inp_kw))
    nl_kw = dict(polarity=+1, width=2e-6, length=0.15e-6, n_units=2)
    ckt.add(Mosfet("m3", {"d": "outn", "g": "outp", "s": "p1", "b": "gnd"}, **nl_kw))
    ckt.add(Mosfet("m4", {"d": "outp", "g": "outn", "s": "p2", "b": "gnd"}, **nl_kw))
    pl_kw = dict(polarity=-1, width=4e-6, length=0.15e-6, n_units=2)
    ckt.add(Mosfet("m5", {"d": "outn", "g": "outp", "s": "vdd", "b": "vdd"}, **pl_kw))
    ckt.add(Mosfet("m6", {"d": "outp", "g": "outn", "s": "vdd", "b": "vdd"}, **pl_kw))
    pre_kw = dict(polarity=-1, width=2e-6, length=0.15e-6, n_units=2)
    ckt.add(Mosfet("p1pre", {"d": "outn", "g": "clk", "s": "vdd", "b": "vdd"}, **pre_kw))
    ckt.add(Mosfet("p2pre", {"d": "outp", "g": "clk", "s": "vdd", "b": "vdd"}, **pre_kw))
    ckt.add(Mosfet("p3pre", {"d": "p1", "g": "clk", "s": "vdd", "b": "vdd"}, **pre_kw))
    ckt.add(Mosfet("p4pre", {"d": "p2", "g": "clk", "s": "vdd", "b": "vdd"}, **pre_kw))
    # Testbench: supply, clock held in evaluation phase, inputs, output loads.
    ckt.add(VoltageSource("vvdd", {"p": "vdd", "n": "gnd"}, dc=VDD))
    ckt.add(VoltageSource("vclk", {"p": "clk", "n": "gnd"}, dc=VDD))
    ckt.add(VoltageSource("vvip", {"p": "vip", "n": "gnd"}, dc=vcm))
    ckt.add(VoltageSource("vvin", {"p": "vin", "n": "gnd"}, dc=vcm))
    ckt.add(Capacitor("cloadp", {"a": "outp", "b": "gnd"}, value=10e-15))
    ckt.add(Capacitor("cloadn", {"a": "outn", "b": "gnd"}, value=10e-15))

    groups = (
        Group("input_pair", GroupKind.DIFF_PAIR, ("m1", "m2")),
        Group("nlatch", GroupKind.CROSS_COUPLED, ("m3", "m4")),
        Group("platch", GroupKind.CROSS_COUPLED, ("m5", "m6")),
        Group("precharge", GroupKind.LOAD_PAIR, ("p1pre", "p2pre", "p3pre", "p4pre")),
        Group("tail", GroupKind.SINGLE, ("mtail",)),
    )
    pairs = (
        MatchedPair("m1", "m2", weight=4.0),
        MatchedPair("m3", "m4", weight=2.0),
        MatchedPair("m5", "m6", weight=1.0),
        MatchedPair("p1pre", "p2pre", weight=0.5),
        MatchedPair("p3pre", "p4pre", weight=0.5),
    )
    return AnalogBlock(
        name="COMP",
        kind="comp",
        circuit=ckt,
        groups=groups,
        pairs=pairs,
        canvas=(9, 10),
        params={"vdd": VDD, "vcm": vcm, "fclk": 500e6, "clamp_v": 0.55,
                "regen_swing": 0.5 * VDD, "seed_imbalance": 10e-3},
        input_nets=("vip", "vin"),
        output_nets=("outp", "outn"),
    )


def folded_cascode_ota(units_input_pair: int = 4) -> AnalogBlock:
    """Folded-cascode OTA with PMOS inputs (the paper's OTA / Fig. 1a).

    Six groups — tail, input pair, NMOS sinks, NMOS cascodes, PMOS
    cascodes, PMOS mirror — matching the grouping drawn in the paper's
    Fig. 1(a).  Single-ended output through the self-biased top mirror.
    """
    vcm = 0.40
    ckt = Circuit("folded_cascode_ota")
    ckt.add(Mosfet("mtail", {"d": "tail", "g": "vbp", "s": "vdd", "b": "vdd"},
                   polarity=-1, width=8e-6, length=0.4e-6, n_units=4))
    inp_kw = dict(polarity=-1, width=units_input_pair * 2e-6, length=0.2e-6,
                  n_units=units_input_pair)
    ckt.add(Mosfet("m1", {"d": "f1", "g": "vip", "s": "tail", "b": "vdd"}, **inp_kw))
    ckt.add(Mosfet("m2", {"d": "f2", "g": "vin", "s": "tail", "b": "vdd"}, **inp_kw))
    sink_kw = dict(polarity=+1, width=4e-6, length=0.4e-6, n_units=2)
    ckt.add(Mosfet("mn1", {"d": "f1", "g": "vbn1", "s": "gnd", "b": "gnd"}, **sink_kw))
    ckt.add(Mosfet("mn2", {"d": "f2", "g": "vbn1", "s": "gnd", "b": "gnd"}, **sink_kw))
    ncas_kw = dict(polarity=+1, width=4e-6, length=0.2e-6, n_units=2)
    ckt.add(Mosfet("mc1", {"d": "outm", "g": "vbn2", "s": "f1", "b": "gnd"}, **ncas_kw))
    ckt.add(Mosfet("mc2", {"d": "outp", "g": "vbn2", "s": "f2", "b": "gnd"}, **ncas_kw))
    pcas_kw = dict(polarity=-1, width=8e-6, length=0.2e-6, n_units=4)
    ckt.add(Mosfet("mp3", {"d": "outm", "g": "vbp2", "s": "t1", "b": "vdd"}, **pcas_kw))
    ckt.add(Mosfet("mp4", {"d": "outp", "g": "vbp2", "s": "t2", "b": "vdd"}, **pcas_kw))
    pmir_kw = dict(polarity=-1, width=8e-6, length=0.4e-6, n_units=4)
    ckt.add(Mosfet("mp1", {"d": "t1", "g": "outm", "s": "vdd", "b": "vdd"}, **pmir_kw))
    ckt.add(Mosfet("mp2", {"d": "t2", "g": "outm", "s": "vdd", "b": "vdd"}, **pmir_kw))
    # Testbench: supply, bias rails, inputs, output load.
    ckt.add(VoltageSource("vvdd", {"p": "vdd", "n": "gnd"}, dc=VDD))
    ckt.add(VoltageSource("vvbp", {"p": "vbp", "n": "gnd"}, dc=0.52))
    ckt.add(VoltageSource("vvbn1", {"p": "vbn1", "n": "gnd"}, dc=0.60))
    ckt.add(VoltageSource("vvbn2", {"p": "vbn2", "n": "gnd"}, dc=0.75))
    ckt.add(VoltageSource("vvbp2", {"p": "vbp2", "n": "gnd"}, dc=0.35))
    ckt.add(VoltageSource("vvip", {"p": "vip", "n": "gnd"}, dc=vcm))
    ckt.add(VoltageSource("vvin", {"p": "vin", "n": "gnd"}, dc=vcm))
    ckt.add(Capacitor("cload", {"a": "outp", "b": "gnd"}, value=1e-12))

    groups = (
        Group("tail", GroupKind.SINGLE, ("mtail",)),
        Group("input_pair", GroupKind.DIFF_PAIR, ("m1", "m2")),
        Group("nsink", GroupKind.LOAD_PAIR, ("mn1", "mn2")),
        Group("ncascode", GroupKind.CASCODE_PAIR, ("mc1", "mc2")),
        Group("pcascode", GroupKind.CASCODE_PAIR, ("mp3", "mp4")),
        Group("pmirror", GroupKind.CURRENT_MIRROR, ("mp1", "mp2")),
    )
    pairs = (
        MatchedPair("m1", "m2", weight=4.0),
        MatchedPair("mn1", "mn2", weight=3.0),
        MatchedPair("mc1", "mc2", weight=1.0),
        MatchedPair("mp3", "mp4", weight=1.0),
        MatchedPair("mp1", "mp2", weight=3.0),
    )
    return AnalogBlock(
        name="OTA",
        kind="ota",
        circuit=ckt,
        groups=groups,
        pairs=pairs,
        canvas=(10, 12),
        params={"vdd": VDD, "vcm": vcm, "cload": 1e-12},
        input_nets=("vip", "vin"),
        output_nets=("outp",),
    )


def two_stage_ota(units_input_pair: int = 4) -> AnalogBlock:
    """Two-stage Miller-compensated OTA (extension beyond the paper's set).

    NMOS-input 5T first stage, PMOS common-source second stage, Miller
    capacitor with nulling resistor.  Exercises pole splitting in the AC
    suite — phase margin responds to placement through the parasitic
    loading of the high-impedance internal node ``x2``.
    """
    vcm = 0.60
    ckt = Circuit("two_stage_ota")
    ckt.add(Mosfet("mtail", {"d": "tail", "g": "vbn", "s": "gnd", "b": "gnd"},
                   polarity=+1, width=8e-6, length=0.4e-6, n_units=4))
    inp_kw = dict(polarity=+1, width=units_input_pair * 2e-6, length=0.2e-6,
                  n_units=units_input_pair)
    # The second stage inverts, so the *inverting* input of the whole OTA
    # is m1's gate (diode side): two inversions from m2's gate make vip
    # the non-inverting input, as the measurement suite expects.
    ckt.add(Mosfet("m1", {"d": "x1", "g": "vin", "s": "tail", "b": "gnd"}, **inp_kw))
    ckt.add(Mosfet("m2", {"d": "x2", "g": "vip", "s": "tail", "b": "gnd"}, **inp_kw))
    load_kw = dict(polarity=-1, width=8e-6, length=0.4e-6, n_units=4)
    ckt.add(Mosfet("mp1", {"d": "x1", "g": "x1", "s": "vdd", "b": "vdd"}, **load_kw))
    ckt.add(Mosfet("mp2", {"d": "x2", "g": "x1", "s": "vdd", "b": "vdd"}, **load_kw))
    ckt.add(Mosfet("m6", {"d": "outp", "g": "x2", "s": "vdd", "b": "vdd"},
                   polarity=-1, width=16e-6, length=0.2e-6, n_units=4))
    ckt.add(Mosfet("m7", {"d": "outp", "g": "vbn", "s": "gnd", "b": "gnd"},
                   polarity=+1, width=8e-6, length=0.4e-6, n_units=4))
    # Miller compensation with nulling resistor, load, bias, inputs.
    ckt.add(Resistor("rz", {"a": "x2", "b": "cz"}, value=1.2e3))
    ckt.add(Capacitor("cc", {"a": "cz", "b": "outp"}, value=0.6e-12))
    ckt.add(Capacitor("cload", {"a": "outp", "b": "gnd"}, value=1e-12))
    ckt.add(VoltageSource("vvdd", {"p": "vdd", "n": "gnd"}, dc=VDD))
    ckt.add(VoltageSource("vvbn", {"p": "vbn", "n": "gnd"}, dc=0.60))
    ckt.add(VoltageSource("vvip", {"p": "vip", "n": "gnd"}, dc=vcm))
    ckt.add(VoltageSource("vvin", {"p": "vin", "n": "gnd"}, dc=vcm))

    groups = (
        Group("tail", GroupKind.SINGLE, ("mtail",)),
        Group("input_pair", GroupKind.DIFF_PAIR, ("m1", "m2")),
        Group("pload", GroupKind.CURRENT_MIRROR, ("mp1", "mp2")),
        Group("stage2", GroupKind.SINGLE, ("m6",)),
        Group("sink", GroupKind.SINGLE, ("m7",)),
    )
    pairs = (
        MatchedPair("m1", "m2", weight=4.0),
        MatchedPair("mp1", "mp2", weight=2.0),
    )
    return AnalogBlock(
        name="OTA2S",
        kind="ota",
        circuit=ckt,
        groups=groups,
        pairs=pairs,
        canvas=(10, 10),
        params={"vdd": VDD, "vcm": vcm, "cload": 1e-12},
        input_nets=("vip", "vin"),
        output_nets=("outp",),
    )


def five_transistor_ota(units_input_pair: int = 2) -> AnalogBlock:
    """Classic 5T OTA — small, fast to simulate; used in tests/examples."""
    vcm = 0.60
    ckt = Circuit("five_transistor_ota")
    ckt.add(Mosfet("mtail", {"d": "tail", "g": "vbn", "s": "gnd", "b": "gnd"},
                   polarity=+1, width=4e-6, length=0.4e-6, n_units=2))
    inp_kw = dict(polarity=+1, width=units_input_pair * 2e-6, length=0.2e-6,
                  n_units=units_input_pair)
    ckt.add(Mosfet("m1", {"d": "x", "g": "vip", "s": "tail", "b": "gnd"}, **inp_kw))
    ckt.add(Mosfet("m2", {"d": "outp", "g": "vin", "s": "tail", "b": "gnd"}, **inp_kw))
    load_kw = dict(polarity=-1, width=4e-6, length=0.4e-6, n_units=2)
    ckt.add(Mosfet("mp1", {"d": "x", "g": "x", "s": "vdd", "b": "vdd"}, **load_kw))
    ckt.add(Mosfet("mp2", {"d": "outp", "g": "x", "s": "vdd", "b": "vdd"}, **load_kw))
    ckt.add(VoltageSource("vvdd", {"p": "vdd", "n": "gnd"}, dc=VDD))
    ckt.add(VoltageSource("vvbn", {"p": "vbn", "n": "gnd"}, dc=0.60))
    ckt.add(VoltageSource("vvip", {"p": "vip", "n": "gnd"}, dc=vcm))
    ckt.add(VoltageSource("vvin", {"p": "vin", "n": "gnd"}, dc=vcm))
    ckt.add(Capacitor("cload", {"a": "outp", "b": "gnd"}, value=0.5e-12))

    groups = (
        Group("tail", GroupKind.SINGLE, ("mtail",)),
        Group("input_pair", GroupKind.DIFF_PAIR, ("m1", "m2")),
        Group("pload", GroupKind.CURRENT_MIRROR, ("mp1", "mp2")),
    )
    pairs = (
        MatchedPair("m1", "m2", weight=2.0),
        MatchedPair("mp1", "mp2", weight=1.0),
    )
    return AnalogBlock(
        name="OTA5T",
        kind="ota",
        circuit=ckt,
        groups=groups,
        pairs=pairs,
        canvas=(7, 6),
        params={"vdd": VDD, "vcm": vcm, "cload": 0.5e-12},
        input_nets=("vip", "vin"),
        output_nets=("outp",),
    )
