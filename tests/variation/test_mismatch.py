"""Unit + statistical tests for the Pelgrom mismatch model."""

import math

import numpy as np
import pytest

from repro.variation import PelgromMismatch


class TestSigmas:
    def setup_method(self):
        self.model = PelgromMismatch(a_vth=3.5e-9, a_beta=1e-8)

    def test_pelgrom_area_scaling(self):
        # Quadrupling area halves sigma.
        small = self.model.sigma_vth(1e-6, 1e-6)
        large = self.model.sigma_vth(2e-6, 2e-6)
        assert large == pytest.approx(small / 2)

    def test_magnitude_is_mv_scale(self):
        # A 1 um x 0.15 um unit should sit in the single-mV range.
        sigma = self.model.sigma_vth(1e-6, 0.15e-6)
        assert 1e-3 < sigma < 20e-3

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            self.model.sigma_vth(0.0, 1e-6)
        with pytest.raises(ValueError, match="dimensions"):
            self.model.sigma_beta(1e-6, -1e-6)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError, match="coefficients"):
            PelgromMismatch(a_vth=-1.0)


class TestSampling:
    def test_deterministic_under_seed(self):
        model = PelgromMismatch()
        a = model.sample_unit(1e-6, 1e-6, np.random.default_rng(7))
        b = model.sample_unit(1e-6, 1e-6, np.random.default_rng(7))
        assert a == b

    def test_sample_statistics(self):
        model = PelgromMismatch(a_vth=3.5e-9, a_beta=1e-8)
        rng = np.random.default_rng(0)
        draws = np.array([model.sample_unit(1e-6, 1e-6, rng) for _ in range(4000)])
        target_vth = model.sigma_vth(1e-6, 1e-6)
        target_beta = model.sigma_beta(1e-6, 1e-6)
        assert np.mean(draws[:, 0]) == pytest.approx(0.0, abs=4 * target_vth / math.sqrt(4000))
        assert np.std(draws[:, 0]) == pytest.approx(target_vth, rel=0.1)
        assert np.std(draws[:, 1]) == pytest.approx(target_beta, rel=0.1)

    def test_zero_coefficients_give_zero_samples(self):
        model = PelgromMismatch(a_vth=0.0, a_beta=0.0)
        dvth, dbeta = model.sample_unit(1e-6, 1e-6, np.random.default_rng(1))
        assert dvth == 0.0
        assert dbeta == 0.0
