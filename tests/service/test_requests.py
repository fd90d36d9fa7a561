"""Schema tests: JSON round-trips, validation, placement/metrics codecs."""

import json

import pytest

from repro.eval.metrics import Metrics
from repro.layout.placement import CanvasSpec, Placement
from repro.service import (
    SCHEMA_VERSION,
    PlacementRequest,
    PlacementResult,
    TrainRequest,
    metrics_from_dict,
    metrics_to_dict,
    placement_from_dict,
    placement_to_dict,
)


class TestPlacementRequestSchema:
    def test_json_round_trip_is_identity(self):
        request = PlacementRequest(circuit="ota2s", steps=123, seed=7,
                                   batch=4, ql_worse_tolerance=0.3)
        wire = json.loads(json.dumps(request.to_json_dict()))
        assert PlacementRequest.from_json_dict(wire) == request

    def test_inline_spice_round_trip(self):
        request = PlacementRequest(
            spice="m1 d g s b nmos40 w=1e-6 l=0.15e-6\n",
            spice_kind="cm", spice_canvas=(6, 6),
            spice_inputs=("g",), spice_outputs=("d",),
            spice_params={"iref": 2e-5, "probe_sources": ["vp"]},
        )
        wire = json.loads(json.dumps(request.to_json_dict()))
        assert PlacementRequest.from_json_dict(wire) == request

    def test_list_and_tuple_construction_are_equal(self):
        listy = PlacementRequest(spice="x\n", spice_inputs=["a"],
                                 spice_canvas=[4, 4])
        tupley = PlacementRequest(spice="x\n", spice_inputs=("a",),
                                  spice_canvas=(4, 4))
        assert listy == tupley

    def test_requires_exactly_one_circuit_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            PlacementRequest()
        with pytest.raises(ValueError, match="exactly one"):
            PlacementRequest(circuit="cm", spice="...")

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="placer"):
            PlacementRequest(circuit="cm", placer="gradient-descent")
        with pytest.raises(ValueError, match="steps"):
            PlacementRequest(circuit="cm", steps=0)
        with pytest.raises(ValueError, match="batch"):
            PlacementRequest(circuit="cm", batch=0)
        with pytest.raises(ValueError, match="warm_start_how"):
            PlacementRequest(circuit="cm", warm_start_how="average")
        with pytest.raises(ValueError, match="warm_policy"):
            PlacementRequest(circuit="cm", placer="sa", warm_policy="p")

    def test_rejects_unknown_keys_and_newer_schema(self):
        with pytest.raises(ValueError, match="does not understand"):
            PlacementRequest.from_json_dict({"circuit": "cm", "stepz": 10})
        with pytest.raises(ValueError, match="schema version"):
            PlacementRequest.from_json_dict(
                {"circuit": "cm", "schema_version": SCHEMA_VERSION + 1})


class TestTrainRequestSchema:
    def test_json_round_trip_is_identity(self):
        request = TrainRequest(circuit="ota5t", workers=2, rounds=4,
                               steps=33, merge_how="visits",
                               target_scale=0.9, save_policy="base",
                               prune_min_visits=2, prune_min_abs_q=1e-6)
        wire = json.loads(json.dumps(request.to_json_dict()))
        assert TrainRequest.from_json_dict(wire) == request

    def test_validation(self):
        with pytest.raises(ValueError, match="circuit"):
            TrainRequest()
        with pytest.raises(ValueError, match="no Q-tables"):
            TrainRequest(circuit="cm", placer="sa")
        with pytest.raises(ValueError, match="merge_how"):
            TrainRequest(circuit="cm", merge_how="average")
        with pytest.raises(ValueError, match="target_scale"):
            TrainRequest(circuit="cm", target_scale=0.0)
        with pytest.raises(ValueError, match="prune"):
            TrainRequest(circuit="cm", prune_min_visits=-1)

    @pytest.mark.parametrize("field,value", [
        ("circuit", ["cm"]), ("workers", 2.0), ("rounds", True),
        ("steps", "9"), ("seed", None), ("target", "x"),
        ("target_scale", False), ("stop_at_target", 1),
        ("warm_policy", 3), ("save_policy", 1), ("prune_min_abs_q", "0"),
    ])
    def test_rejects_wrongly_typed_fields(self, field, value):
        payload = {"circuit": "cm", field: value}
        with pytest.raises(TypeError, match=field):
            TrainRequest.from_json_dict(payload)


class TestPlacementCodec:
    def test_placement_round_trip(self):
        placement = Placement(CanvasSpec(4, 3))
        placement.place(("m1", 0), (0, 0))
        placement.place(("m1", 1), (3, 2))
        placement.place(("m2", 0), (1, 1))
        data = json.loads(json.dumps(placement_to_dict(placement)))
        restored = placement_from_dict(data)
        assert restored.canvas == placement.canvas
        assert set(restored.units) == set(placement.units)
        for unit in placement.units:
            assert restored.cell_of(unit) == placement.cell_of(unit)

    def test_metrics_round_trip(self):
        metrics = Metrics(kind="cm", primary="mismatch_pct",
                          values={"mismatch_pct": 1.25, "area_um2": 40.0})
        data = json.loads(json.dumps(metrics_to_dict(metrics)))
        assert metrics_from_dict(data) == metrics
        assert metrics_to_dict(None) is None
        assert metrics_from_dict(None) is None


class TestPlacementResultSchema:
    def _result(self):
        placement = Placement(CanvasSpec(2, 2))
        placement.place(("m1", 0), (0, 1))
        return PlacementResult(
            kind="place", circuit="cm", placer="ql", seed=1, steps=50,
            batch=1, best_cost=0.25, initial_cost=1.0, target=0.5,
            reached_target=True, sims_used=42, sims_to_target=17,
            history=[[1, 1.0], [17, 0.25]],
            placement=placement_to_dict(placement),
            metrics={"kind": "cm", "primary": "mismatch_pct",
                     "values": {"mismatch_pct": 0.25}},
            detail=object(),
        )

    def test_json_round_trip_drops_detail_only(self):
        result = self._result()
        wire = json.loads(json.dumps(result.to_json_dict()))
        restored = PlacementResult.from_json_dict(wire)
        assert restored.detail is None
        assert restored.to_json_dict() == result.to_json_dict()
        # dataclass equality ignores detail (compare=False)
        assert restored == result

    def test_objects_rebuild(self):
        result = self._result()
        assert result.placement_object().cell_of(("m1", 0)) == (0, 1)
        assert result.metrics_object().primary_value == 0.25

    def test_unknown_keys_rejected(self):
        wire = self._result().to_json_dict()
        wire["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            PlacementResult.from_json_dict(wire)
