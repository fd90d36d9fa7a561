"""Preference-conditioned objectives: validation, monotonicity, and the
bit-identity contract — default weights reproduce the historical scalar
cost exactly, on every library block."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.evaluator import AREA_WEIGHT, PlacementEvaluator
from repro.eval.objective import OBJECTIVE_KEYS, ObjectiveWeights
from repro.layout.generators import banded_placement
from repro.service import default_registry

BLOCKS = ("cm", "comp", "ota", "ota5t", "ota2s")


class TestValidation:
    def test_defaults(self):
        w = ObjectiveWeights()
        assert (w.matching, w.area, w.noise, w.parasitics) == (1, 1, 0, 0)

    def test_from_mapping_roundtrip_and_empty(self):
        assert ObjectiveWeights.from_mapping({}) == ObjectiveWeights()
        assert ObjectiveWeights.from_mapping(None) == ObjectiveWeights()
        w = ObjectiveWeights.from_mapping(
            {"matching": 2.0, "noise": 0.5})
        assert (w.matching, w.noise) == (2.0, 0.5)
        assert w != ObjectiveWeights()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="speed"):
            ObjectiveWeights.from_mapping({"speed": 1.0})

    @pytest.mark.parametrize("key", OBJECTIVE_KEYS)
    def test_negative_and_non_finite_rejected(self, key):
        with pytest.raises(ValueError):
            ObjectiveWeights.from_mapping({key: -0.1})
        with pytest.raises(ValueError):
            ObjectiveWeights.from_mapping({key: float("nan")})
        with pytest.raises(ValueError):
            ObjectiveWeights.from_mapping({key: float("inf")})

    def test_zero_matching_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            ObjectiveWeights(matching=0.0)


def _cost(block, placement, metrics, **weights):
    evaluator = PlacementEvaluator(
        block, objective=ObjectiveWeights.from_mapping(weights or None))
    return evaluator._cost_of(placement, metrics)


@pytest.fixture(scope="module")
def priced_cm():
    """One real evaluation of the mirror block: placement + metrics."""
    block = default_registry().build("cm")
    placement = banded_placement(block, "ysym")
    metrics = PlacementEvaluator(block).evaluate(placement)
    assert "power_w" in metrics.values
    assert "wirelength_um" in metrics.values
    return block, placement, metrics


class TestBitIdentity:
    @pytest.mark.parametrize("circuit", BLOCKS)
    def test_default_weights_reproduce_historical_cost(self, circuit):
        block = default_registry().build(circuit)
        placement = banded_placement(block, "ysym")
        baseline = PlacementEvaluator(block)
        metrics = baseline.evaluate(placement)

        # The pre-objective scalar: primary * (1 + w_area*(spread - 1)).
        spread = placement.area_cells() / max(1, len(placement))
        historical = metrics.primary_value * (
            1.0 + AREA_WEIGHT * max(0.0, spread - 1.0))

        assert baseline._cost_of(placement, metrics) == historical
        explicit = PlacementEvaluator(block, objective=ObjectiveWeights())
        assert explicit._cost_of(placement, metrics) == historical
        from_empty = PlacementEvaluator(
            block, objective=ObjectiveWeights.from_mapping({}))
        assert from_empty._cost_of(placement, metrics) == historical


class TestMonotonicity:
    @given(
        key=st.sampled_from(OBJECTIVE_KEYS),
        low=st.floats(min_value=0.0, max_value=10.0),
        bump=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_monotone_in_each_weight(self, priced_cm, key, low, bump):
        block, placement, metrics = priced_cm
        if key == "matching" and low == 0.0:
            low = 0.5  # matching must stay positive
        before = _cost(block, placement, metrics, **{key: low})
        after = _cost(block, placement, metrics, **{key: low + bump})
        assert after >= before

    def test_noise_and_parasitics_add_proxy_terms(self, priced_cm):
        block, placement, metrics = priced_cm
        base = _cost(block, placement, metrics)
        noisy = _cost(block, placement, metrics, noise=2.0)
        wired = _cost(block, placement, metrics, parasitics=3.0)
        assert noisy == base + 2.0 * metrics.values["power_w"]
        assert wired == base + 3.0 * metrics.values["wirelength_um"]
