"""Tests for experiment configuration handling."""

import pytest

from repro.experiments import ALL_CONFIGS, CM_CONFIG, ExperimentConfig
from repro.service.registry import build_circuit


class TestConfigs:
    def test_all_three_circuits_configured(self):
        assert set(ALL_CONFIGS) == {"cm", "comp", "ota"}

    def test_builders_produce_blocks(self):
        for config in ALL_CONFIGS.values():
            block = build_circuit(config.builder)
            assert block.name == config.name

    def test_scaled(self):
        longer = CM_CONFIG.scaled(2.0)
        assert longer.max_steps == 2 * CM_CONFIG.max_steps
        assert longer.seeds == CM_CONFIG.seeds

    def test_scaled_validates(self):
        with pytest.raises(ValueError, match="factor"):
            CM_CONFIG.scaled(0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_steps"):
            ExperimentConfig("X", "ota5t", 0, (1,))
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig("X", "ota5t", 10, ())
        with pytest.raises(ValueError, match="epsilon_decay_frac"):
            ExperimentConfig("X", "ota5t", 10, (1,), epsilon_decay_frac=0.0)

    def test_with_batch(self):
        batched = CM_CONFIG.with_batch(8)
        assert batched.batch == 8
        assert batched.max_steps == CM_CONFIG.max_steps
        assert CM_CONFIG.batch == 1  # original untouched

    def test_batch_validated(self):
        with pytest.raises(ValueError, match="batch"):
            ExperimentConfig("X", "ota5t", 10, (1,), batch=0)
