"""Tests for the VariationModel combinator and the calibrated default."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.variation import (
    DeviceDelta,
    LinearGradient,
    LodStressModel,
    PelgromMismatch,
    UnitContext,
    VariationModel,
    WellProximityModel,
    default_variation_model,
)
from repro.variation.gradients import field_values


def field_span(field_, extent):
    """Peak-to-peak of a field over a 21 x 21 grid on ``[0, extent]^2``."""
    x, y = np.meshgrid(np.linspace(0.0, extent, 21),
                       np.linspace(0.0, extent, 21))
    return np.ptp(field_values(field_, x.ravel(), y.ravel()))


def ctx_at(x_um, y_um, **kw):
    return UnitContext(x=x_um * 1e-6, y=y_um * 1e-6, **kw)


class TestDeviceDelta:
    def test_addition(self):
        total = DeviceDelta(0.001, 0.01) + DeviceDelta(0.002, -0.005)
        assert total.dvth == pytest.approx(0.003)
        assert total.dbeta_rel == pytest.approx(0.005)

    def test_default_is_zero(self):
        assert DeviceDelta() == DeviceDelta(0.0, 0.0)


class TestSystematic:
    def test_field_only(self):
        model = VariationModel(vth_field=LinearGradient(gx=1.0, gy=0.0))
        delta = model.systematic_unit(ctx_at(2.0, 0.0), +1)
        assert delta.dvth == pytest.approx(2e-6)
        assert delta.dbeta_rel == 0.0

    def test_lde_contributions_added(self):
        model = VariationModel(
            lod=LodStressModel(k_beta=0.02, k_vth=0.002),
            wpe=WellProximityModel(k_vth=0.004, decay_length=2e-6),
        )
        ctx = UnitContext(x=0, y=0, run_left=0, run_right=0, dist_to_edge=0.0)
        delta = model.systematic_unit(ctx, +1)
        assert delta.dvth == pytest.approx(0.002 + 0.004)
        assert delta.dbeta_rel == pytest.approx(-0.02)

    def test_device_average_over_units(self):
        model = VariationModel(vth_field=LinearGradient(gx=1.0, gy=0.0))
        contexts = [ctx_at(0.0, 0.0), ctx_at(4.0, 0.0)]
        delta = model.systematic_device(contexts, +1)
        assert delta.dvth == pytest.approx(2e-6)

    def test_empty_contexts_rejected(self):
        with pytest.raises(ValueError, match="unit context"):
            VariationModel().systematic_device([], +1)

    @given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
    def test_matched_positions_give_matched_deltas(self, x_um, y_um):
        """Two devices whose units occupy identical positions always match."""
        model = default_variation_model(canvas_extent=100e-6)
        contexts = [ctx_at(x_um + 50, y_um + 50, dist_to_edge=5e-6)]
        a = model.systematic_device(contexts, +1)
        b = model.systematic_device(contexts, +1)
        assert a == b


class TestSampling:
    def test_no_mismatch_equals_systematic(self):
        model = VariationModel(vth_field=LinearGradient(gx=1.0, gy=1.0))
        contexts = [ctx_at(1.0, 2.0)]
        sampled = model.sample_device(contexts, +1, 1e-6, 1e-6, np.random.default_rng(0))
        assert sampled == model.systematic_device(contexts, +1)

    def test_mismatch_reproducible_with_seed(self):
        model = VariationModel(mismatch=PelgromMismatch())
        contexts = [ctx_at(0, 0), ctx_at(1, 0)]
        a = model.sample_device(contexts, +1, 1e-6, 1e-6, np.random.default_rng(3))
        b = model.sample_device(contexts, +1, 1e-6, 1e-6, np.random.default_rng(3))
        assert a == b

    def test_more_units_reduce_random_spread(self):
        model = VariationModel(mismatch=PelgromMismatch())
        rng = np.random.default_rng(0)
        few = [
            model.sample_device([ctx_at(0, 0)], +1, 1e-6, 1e-6, rng).dvth
            for _ in range(500)
        ]
        many = [
            model.sample_device([ctx_at(i, 0) for i in range(16)], +1, 1e-6, 1e-6, rng).dvth
            for _ in range(500)
        ]
        assert np.std(many) < np.std(few) / 2


class TestDefaultModel:
    def test_nonlinear_kind_has_nonlinear_fields(self):
        model = default_variation_model(canvas_extent=100e-6, kind="nonlinear")
        # Sample the field along a line: a linear field has zero second
        # difference; the nonlinear default must not.
        xs = [10e-6, 50e-6, 90e-6]
        vals = [model.vth_field.value(x, 30e-6) for x in xs]
        second_diff = vals[0] - 2 * vals[1] + vals[2]
        assert abs(second_diff) > 1e-6

    def test_linear_kind_is_linear(self):
        model = default_variation_model(canvas_extent=100e-6, kind="linear")
        xs = [10e-6, 50e-6, 90e-6]
        vals = [model.vth_field.value(x, 30e-6) for x in xs]
        second_diff = vals[0] - 2 * vals[1] + vals[2]
        assert abs(second_diff) < 1e-12

    def test_none_kind_is_zero(self):
        model = default_variation_model(canvas_extent=100e-6, kind="none", with_lde=False)
        assert model.systematic_unit(ctx_at(37.0, 81.0), +1) == DeviceDelta()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            default_variation_model(canvas_extent=1e-4, kind="exotic")

    def test_bad_extent_rejected(self):
        with pytest.raises(ValueError, match="canvas_extent"):
            default_variation_model(canvas_extent=0.0)

    def test_vth_span_is_mv_scale(self):
        extent = 100e-6
        model = default_variation_model(canvas_extent=extent, kind="nonlinear")
        span = field_span(model.vth_field, extent)
        assert 2e-3 < span < 50e-3

    def test_beta_span_is_percent_scale(self):
        extent = 100e-6
        model = default_variation_model(canvas_extent=extent, kind="nonlinear")
        span = field_span(model.beta_field, extent)
        assert 0.005 < span < 0.10

    def test_recentred_at_canvas_centre(self):
        extent = 80e-6
        model = default_variation_model(canvas_extent=extent, kind="nonlinear")
        assert model.vth_field.value(extent / 2, extent / 2) == pytest.approx(0.0, abs=1e-12)

    def test_mismatch_off_by_default(self):
        assert default_variation_model(canvas_extent=1e-4).mismatch is None

    def test_mismatch_on_request(self):
        model = default_variation_model(canvas_extent=1e-4, with_mismatch=True)
        assert isinstance(model.mismatch, PelgromMismatch)

    def test_lde_toggle(self):
        off = default_variation_model(canvas_extent=1e-4, with_lde=False)
        assert off.lod is None and off.wpe is None
        on = default_variation_model(canvas_extent=1e-4, with_lde=True)
        assert on.lod is not None and on.wpe is not None
