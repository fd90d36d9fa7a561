"""RunSpec ⇄ PlacementRequest: two views of one schema."""

import pytest

from repro.runtime.spec import RunSpec, build_block
from repro.service import PlacementRequest, default_registry
from repro.service.registry import BUILDERS, SpiceDeck

MINI_DECK = (
    "mm1 vg vg gnd gnd nmos40 w=1e-6 l=0.15e-6 m=2\n"
    "mm2 o vg gnd gnd nmos40 w=1e-6 l=0.15e-6 m=2\n"
    "vvvdd vdd 0 dc 1.1\n"
    "iiref vdd vg dc 2e-5\n"
    "vvprobe o 0 dc 0.55\n"
)


class TestSpecRequestBridge:
    def test_from_request_reproduces_the_place_spec(self):
        """The served ``/place`` spec is exactly what ``repro place``
        historically built — the bit-identical-serving precondition."""
        request = PlacementRequest(circuit="ota5t", steps=60, seed=3,
                                   batch=2)
        spec = RunSpec.from_request(request)
        assert spec == RunSpec(
            key="place", builder="ota5t", placer="ql", seed=3,
            max_steps=60, batch=2, target_from_symmetric=True,
            share_target_evaluator=True,
        )

    def test_round_trip_identity_from_request(self):
        request = PlacementRequest(circuit="cm", placer="flat", steps=77,
                                   seed=9, batch=3, epsilon_decay_frac=0.5,
                                   ql_worse_tolerance=0.1,
                                   stop_at_target=True)
        assert RunSpec.from_request(request).to_request() == request

    def test_round_trip_identity_from_spec(self):
        spec = RunSpec(
            key="place", builder="ota2s", placer="ql", seed=5,
            max_steps=40, batch=2, target_from_symmetric=True,
            share_target_evaluator=True, stop_at_target=True,
            ql_worse_tolerance=0.2,
        )
        assert RunSpec.from_request(spec.to_request()) == spec

    def test_explicit_target_survives(self):
        request = PlacementRequest(circuit="cm", target=0.125, steps=20)
        spec = RunSpec.from_request(request)
        assert spec.target == 0.125
        assert not spec.target_from_symmetric
        assert spec.to_request().target == 0.125

    def test_warm_tables_are_injected(self):
        tables = {("top",): object()}
        spec = RunSpec.from_request(
            PlacementRequest(circuit="cm", steps=10),
            initial_tables=tables,
        )
        assert spec.initial_tables is tables

    def test_callable_builder_has_no_wire_form(self):
        """A callable or a built block is not data: refused at
        construction, before it could need a wire form."""
        for builder in (BUILDERS["cm"], BUILDERS["cm"]()):
            with pytest.raises(TypeError, match="BUILDERS key or a SpiceDeck"):
                RunSpec(key="x", builder=builder)

    def test_deck_refuses_builder_kwargs(self):
        with pytest.raises(ValueError, match="builder_kwargs"):
            RunSpec(key="x", builder=SpiceDeck(MINI_DECK),
                    builder_kwargs=(("units_per_device", 2),))

    def test_inline_spice_builds_a_block(self):
        request = PlacementRequest(spice=MINI_DECK, spice_kind="cm",
                                   spice_name="mini", steps=10)
        spec = RunSpec.from_request(request)
        assert spec.builder == SpiceDeck(MINI_DECK, kind="cm", name="mini")
        assert spec.to_request() == request
        assert RunSpec.from_request(spec.to_request()) == spec
        block = build_block(spec)
        assert block.name == "mini"
        assert block.kind == "cm"
        assert block.circuit.total_units() == 4
        cols, rows = block.canvas
        assert cols * rows >= 8  # auto-sized with slack


class TestRegistryIsShared:
    def test_spec_builders_are_the_registry_view(self):
        """The default registry names each library block by its own
        BUILDERS key, which is what a spec carries."""
        registry = default_registry()
        assert set(BUILDERS) == set(registry.keys())
        for key in registry.keys():
            assert registry[key] == key
            spec = RunSpec.from_request(PlacementRequest(circuit=key))
            assert spec.builder == key

    def test_registration_is_visible_everywhere(self):
        registry = default_registry()
        marker = "test-shared-registry-key"
        deck = SpiceDeck(MINI_DECK, name=marker)
        registry.register(marker, deck)
        try:
            spec = RunSpec.from_request(PlacementRequest(circuit=marker))
            assert spec.builder == deck  # ships by value
            assert build_block(spec).name == marker
        finally:
            del registry._circuits[marker]

    def test_registry_refuses_callables(self):
        with pytest.raises(TypeError, match="SpiceDeck"):
            default_registry().register("x", BUILDERS["cm"])
        with pytest.raises(ValueError, match="unknown builder"):
            default_registry().register("x", "decoder")


class TestOffSchemaSpecs:
    def test_behavior_bearing_fields_refuse_to_convert(self):
        """Fields the request schema cannot express must fail loudly —
        a silently narrowed request would execute a different run."""
        for kwargs in (
            dict(variation_kind="linear"),
            dict(builder_kwargs=(("units_per_device", 2),)),
            dict(evaluate_best=False),
            dict(return_tables=True),
            dict(initial_tables={}),
        ):
            spec = RunSpec(key="x", builder="cm", **kwargs)
            with pytest.raises(ValueError, match="request-schema"):
                spec.to_request()
