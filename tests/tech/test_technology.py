"""Unit tests for the Technology container."""

import dataclasses

import pytest

from repro.tech import generic_tech_40, nominal_nmos_40, nominal_pmos_40


@pytest.fixture
def tech():
    return generic_tech_40()


class TestGenericTech40:
    def test_supply_is_40nm_class(self, tech):
        assert 0.9 <= tech.vdd <= 1.2

    def test_grid_pitch_positive(self, tech):
        assert tech.grid_pitch > 0

    def test_params_for_polarities(self, tech):
        assert tech.params_for(+1).is_nmos
        assert tech.params_for(-1).is_pmos

    def test_params_for_bad_polarity(self, tech):
        with pytest.raises(ValueError, match="polarity"):
            tech.params_for(0)

    def test_cell_area(self, tech):
        assert tech.cell_area() == pytest.approx(tech.grid_pitch**2)


class TestValidation:
    def test_swapped_polarity_sets_rejected(self, tech):
        with pytest.raises(ValueError, match="polarity"):
            dataclasses.replace(tech, nmos=nominal_pmos_40())
        with pytest.raises(ValueError, match="polarity"):
            dataclasses.replace(tech, pmos=nominal_nmos_40())

    def test_nonpositive_pitch_rejected(self, tech):
        with pytest.raises(ValueError, match="grid_pitch"):
            dataclasses.replace(tech, grid_pitch=0.0)

    def test_nonpositive_vdd_rejected(self, tech):
        with pytest.raises(ValueError, match="vdd"):
            dataclasses.replace(tech, vdd=-1.0)

    def test_nonpositive_unit_dims_rejected(self, tech):
        with pytest.raises(ValueError, match="dimensions"):
            dataclasses.replace(tech, unit_width=0.0)
