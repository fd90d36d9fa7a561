"""Tests for the Fig. 3 harness (fast config on the 5T OTA)."""

import pytest

from repro.experiments import ExperimentConfig, best_symmetric, format_fig3, run_fig3
from repro.eval import PlacementEvaluator
from repro.netlist import five_transistor_ota

FAST = ExperimentConfig(
    name="OTA5T", builder="ota5t", max_steps=60, seeds=(1, 2, 3),
)


@pytest.fixture(scope="module")
def result():
    return run_fig3(FAST)


class TestStructure:
    def test_three_rows(self, result):
        assert [r.algorithm for r in result.rows] == [
            "Symmetric (SOTA)", "SA", "Q-learning",
        ]

    def test_reference_fom_is_one(self, result):
        assert result.row("Symmetric (SOTA)").fom == pytest.approx(1.0)

    def test_target_positive(self, result):
        assert result.target > 0

    def test_per_seed_stats_populated(self, result):
        for name in ("SA", "Q-learning"):
            row = result.row(name)
            assert len(row.primary_runs) == len(FAST.seeds)
            assert len(row.tt_runs) == len(FAST.seeds)

    def test_unknown_row_rejected(self, result):
        with pytest.raises(KeyError, match="algorithm"):
            result.row("GeneticAlgorithm")

    def test_claims_structure(self, result):
        claims = result.claims_hold()
        assert set(claims) == {
            "ql_beats_symmetric_primary",
            "ql_beats_symmetric_fom",
            "sa_beats_symmetric_primary",
            "ql_not_worse_than_sa_primary",
            "ql_fewer_sims_to_target",
        }

    def test_optimizers_beat_symmetric_even_fast(self, result):
        # Even a 60-step budget reliably beats the symmetric layout on
        # the small OTA (claims on the paper circuits live in benchmarks).
        claims = result.claims_hold()
        assert claims["ql_beats_symmetric_primary"]
        assert claims["sa_beats_symmetric_primary"]


class TestFormatting:
    def test_format_contains_rows_and_target(self, result):
        text = format_fig3(result)
        assert "Q-learning" in text
        assert "SA" in text
        assert "Symmetric" in text
        assert "target" in text
        assert "claims:" in text


class TestBestSymmetric:
    def test_returns_the_cheaper_style(self):
        block = five_transistor_ota()
        evaluator = PlacementEvaluator(block)
        style, placement, metrics = best_symmetric(block, evaluator)
        assert style in ("ysym", "common_centroid")
        assert metrics.primary_value >= 0
        assert len(placement) == block.circuit.total_units()
