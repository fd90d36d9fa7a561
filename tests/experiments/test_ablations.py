"""Tests for the ablation experiments (fast budgets, small circuit)."""

import pytest

from repro.experiments import (
    format_convergence,
    format_hierarchy,
    format_linearity,
    run_convergence_ablation,
    run_hierarchy_ablation,
    run_linearity_ablation,
)


class TestHierarchyAblation:
    @pytest.fixture(scope="class")
    def ablation(self):
        return run_hierarchy_ablation("ota5t", max_steps=120, seed=1)

    def test_both_variants_report_tables(self, ablation):
        assert ablation.multi_table_entries > 0
        assert ablation.flat_table_entries > 0

    def test_format(self, ablation):
        text = format_hierarchy(ablation)
        assert "multi-level" in text
        assert "flat" in text


class TestConvergenceAblation:
    @pytest.fixture(scope="class")
    def ablation(self):
        return run_convergence_ablation("ota5t", max_steps=120, seed=1)

    def test_histories_nonempty(self, ablation):
        assert ablation.ql_history
        assert ablation.sa_history

    def test_cost_at_is_monotone(self, ablation):
        costs = [ablation.ql_cost_at(s) for s in (10, 30, 60, 120)]
        assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))

    def test_both_improve(self, ablation):
        assert ablation.ql_best <= ablation.ql_history[0][1]
        assert ablation.sa_best <= ablation.sa_history[0][1]

    def test_format(self, ablation):
        text = format_convergence(ablation, checkpoints=(10, 30))
        assert "QL best" in text
        assert "SA best" in text


class TestLinearityAblation:
    @pytest.fixture(scope="class")
    def ablation(self):
        return run_linearity_ablation("ota5t", max_steps=150, seed=1)

    def test_both_regimes_present(self, ablation):
        assert set(ablation.regimes) == {"linear", "nonlinear"}

    def test_nonlinear_offers_more_headroom(self, ablation):
        """The paper's premise: optimization gains much more under the
        non-linear field than under the linear one (where symmetric
        placement is already near-optimal)."""
        assert ablation.gain("nonlinear") > ablation.gain("linear")

    def test_linear_symmetric_is_already_good(self, ablation):
        # Symmetric cancels a linear gradient almost perfectly: the
        # remaining offset under the linear field is small compared to
        # what the same layout suffers under the non-linear field.  (It is
        # not exactly zero — the 5T OTA has a small *topological*
        # systematic offset from the diode-vs-mirror V_DS imbalance.)
        linear = ablation.regimes["linear"]["symmetric"]
        nonlinear = ablation.regimes["nonlinear"]["symmetric"]
        assert linear < 0.25 * nonlinear

    def test_format(self, ablation):
        text = format_linearity(ablation)
        assert "linear" in text
        assert "nonlinear" in text
