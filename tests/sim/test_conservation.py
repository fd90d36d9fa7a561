"""Physics property tests: charge conservation and bias monotonicity.

These are simulator-wide invariants checked with hypothesis across bias
conditions — KCL must hold at every converged solution, device by device,
computed independently of the solver's own residual."""

from hypothesis import given, settings, strategies as st

from repro.netlist import CurrentSource, Mosfet, Resistor, VoltageSource, five_transistor_ota
from repro.netlist.nets import is_ground
from repro.sim import solve_dc
from repro.sim.mosfet import terminal_currents
from repro.tech import generic_tech_40

TECH = generic_tech_40()


def node_current_sums(circuit, result):
    """Independent KCL audit: net → sum of currents leaving it."""
    sums = {net: 0.0 for net in circuit.nets() if not is_ground(net)}

    def add(net, value):
        if net in sums:
            sums[net] += value

    for device in circuit:
        if isinstance(device, Mosfet):
            op = terminal_currents(
                TECH.params_for(device.polarity), device.width, device.length,
                result.voltage(device.net("d")), result.voltage(device.net("g")),
                result.voltage(device.net("s")), result.voltage(device.net("b")),
            )
            add(device.net("d"), op.ids)
            add(device.net("s"), -op.ids)
        elif isinstance(device, Resistor):
            i = (result.voltage(device.net("a"))
                 - result.voltage(device.net("b"))) / device.value
            add(device.net("a"), i)
            add(device.net("b"), -i)
        elif isinstance(device, CurrentSource):
            add(device.net("p"), device.dc)
            add(device.net("n"), -device.dc)
        elif isinstance(device, VoltageSource):
            i = result.current(device.name)
            add(device.net("p"), i)
            add(device.net("n"), -i)
    return sums


class TestKcl:
    @given(vcm=st.floats(min_value=0.45, max_value=0.75),
           vbn=st.floats(min_value=0.50, max_value=0.70))
    @settings(max_examples=15, deadline=None)
    def test_kcl_holds_across_bias(self, vcm, vbn):
        block = five_transistor_ota()
        result = solve_dc(block.circuit, TECH,
                          source_values={"vvip": vcm, "vvin": vcm, "vvbn": vbn})
        for net, total in node_current_sums(block.circuit, result).items():
            assert abs(total) < 1e-8, (net, total)

    def test_kcl_on_mirror(self):
        from repro.netlist import current_mirror
        block = current_mirror()
        result = solve_dc(block.circuit, TECH)
        for net, total in node_current_sums(block.circuit, result).items():
            assert abs(total) < 1e-8, (net, total)


class TestBiasMonotonicity:
    @given(step=st.floats(min_value=0.01, max_value=0.05))
    @settings(max_examples=10, deadline=None)
    def test_tail_bias_monotone_in_supply_current(self, step):
        """Raising the tail gate bias can only increase supply current."""
        block = five_transistor_ota()
        lo = solve_dc(block.circuit, TECH, source_values={"vvbn": 0.55})
        hi = solve_dc(block.circuit, TECH, source_values={"vvbn": 0.55 + step})
        assert -hi.current("vvdd") >= -lo.current("vvdd") - 1e-12
