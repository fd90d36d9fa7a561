"""Unit + property tests for spatial gradient fields."""

import pytest
from hypothesis import given, strategies as st

from repro.variation import (
    CompositeField,
    LinearGradient,
    QuadraticGradient,
    SinusoidalGradient,
)

coords = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False)


class TestLinearGradient:
    def test_zero_at_origin(self):
        assert LinearGradient(gx=1.0, gy=2.0).value(0.0, 0.0) == 0.0

    def test_slope_along_x(self):
        f = LinearGradient(gx=3.0, gy=0.0)
        assert f.value(2.0, 17.0) == pytest.approx(6.0)

    def test_offset_origin(self):
        f = LinearGradient(gx=1.0, gy=1.0, x0=1.0, y0=1.0)
        assert f.value(1.0, 1.0) == 0.0

    @given(coords, coords, coords, coords)
    def test_superposition(self, x1, y1, x2, y2):
        """Linearity: f(a) + f(b) == f(a + b) for zero-origin gradients."""
        f = LinearGradient(gx=2.0, gy=-3.0)
        assert f.value(x1, y1) + f.value(x2, y2) == pytest.approx(
            f.value(x1 + x2, y1 + y2), abs=1e-12
        )

    @given(coords, coords)
    def test_common_centroid_cancels_linear(self, x, y):
        """The classical result: points mirrored through the centroid cancel."""
        f = LinearGradient(gx=5.0, gy=-7.0, x0=0.3e-3, y0=-0.2e-3)
        centre_x, centre_y = 0.1e-3, 0.05e-3
        a = f.value(centre_x + x, centre_y + y)
        b = f.value(centre_x - x, centre_y - y)
        assert (a + b) / 2 == pytest.approx(f.value(centre_x, centre_y), abs=1e-9)


class TestQuadraticGradient:
    def test_bowl_minimum_at_centre(self):
        f = QuadraticGradient(cxx=1.0, cyy=1.0, x0=2.0, y0=3.0)
        assert f.value(2.0, 3.0) == 0.0
        assert f.value(2.5, 3.0) > 0.0

    @given(coords, coords)
    def test_common_centroid_does_not_cancel_quadratic(self, x, y):
        """The paper's counter-example: even terms survive mirroring."""
        f = QuadraticGradient(cxx=1.0, cyy=1.0)
        a = f.value(x, y)
        b = f.value(-x, -y)
        # Mirrored points see the *same* value, so their difference from the
        # centre value does not cancel — it doubles.
        assert a == pytest.approx(b, abs=1e-12)

    def test_cross_term(self):
        f = QuadraticGradient(cxx=0.0, cyy=0.0, cxy=2.0)
        assert f.value(3.0, 4.0) == pytest.approx(24.0)


class TestSinusoidalGradient:
    def test_requires_some_wavelength(self):
        with pytest.raises(ValueError, match="wavelength"):
            SinusoidalGradient(amplitude=1.0)

    def test_positive_wavelength_required(self):
        with pytest.raises(ValueError, match="positive"):
            SinusoidalGradient(amplitude=1.0, wavelength_x=-1.0)

    def test_periodicity_x(self):
        f = SinusoidalGradient(amplitude=1.0, wavelength_x=2.0)
        assert f.value(0.3, 0.0) == pytest.approx(f.value(2.3, 0.0))

    def test_amplitude_bound(self):
        f = SinusoidalGradient(amplitude=0.5, wavelength_x=1.0, wavelength_y=1.3)
        for i in range(10):
            for j in range(10):
                assert abs(f.value(i * 0.17, j * 0.23)) <= 0.5 + 1e-12

    def test_one_dimensional_in_y_when_only_wx(self):
        f = SinusoidalGradient(amplitude=1.0, wavelength_x=2.0)
        assert f.value(0.5, 0.0) == pytest.approx(f.value(0.5, 123.0))


class TestCompositeField:
    def test_empty_is_zero(self):
        assert CompositeField().value(5.0, -3.0) == 0.0

    def test_sum_of_components(self):
        f = CompositeField((LinearGradient(gx=1.0, gy=0.0),
                            LinearGradient(gx=0.0, gy=2.5)))
        assert f.value(1.0, 1.0) == pytest.approx(3.5)

    @given(coords, coords)
    def test_matches_manual_sum(self, x, y):
        parts = (
            LinearGradient(gx=1.0, gy=2.0),
            QuadraticGradient(cxx=3.0, cyy=4.0),
        )
        f = CompositeField(parts)
        assert f.value(x, y) == pytest.approx(sum(p.value(x, y) for p in parts))
