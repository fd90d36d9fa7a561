"""Tests for the island-model shared-policy training campaign."""

import pytest

from repro.core import QTable
from repro.core.persistence import load_tables_snapshot
from repro.core.qlearning import MergeStats
from repro.train import TrainingCampaign, run_campaign
from repro.train.campaign import merge_tables


def fast_campaign(**overrides):
    kwargs = dict(
        workers=2, rounds=2, steps_per_round=25, seed=0,
        stop_at_target=False,  # run every round so merging is exercised
    )
    kwargs.update(overrides)
    return run_campaign("ota5t", **kwargs)


class TestCampaignBasics:
    @pytest.fixture(scope="class")
    def result(self):
        return fast_campaign()

    def test_runs_all_rounds_and_improves(self, result):
        assert result.rounds_run == 2
        assert result.best_cost <= result.initial_cost
        assert result.improvement >= 0.0

    def test_master_policy_accumulates(self, result):
        assert result.master_entries > 0
        assert all(isinstance(t, QTable) for t in result.master_tables.values())
        # Multi-level placer: top agent plus one agent per group.
        assert ("top",) in result.master_tables
        assert any(k[0] == "bottom" for k in result.master_tables)

    def test_round_reports_consistent(self, result):
        totals = 0
        for i, rep in enumerate(result.rounds):
            assert rep.index == i
            totals += rep.sims
            assert rep.sims_total == totals
            merge = rep.merge
            assert merge.added + merge.updated + merge.kept > 0
        assert result.total_sims == totals
        # Master only ever grows under a merge.
        sizes = [rep.master_entries for rep in result.rounds]
        assert sizes == sorted(sizes)

    def test_history_seeded_and_monotone(self, result):
        assert result.history[0] == (1, result.initial_cost)
        costs = [c for __, c in result.history]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_campaign_deterministic(self, result):
        again = fast_campaign()
        assert again.best_cost == result.best_cost
        assert again.history == result.history
        assert ({k: sorted(t.items()) for k, t in again.master_tables.items()}
                == {k: sorted(t.items())
                    for k, t in result.master_tables.items()})


class TestTargetHandling:
    def test_stop_at_target_ends_campaign_early(self):
        # The symmetric target is generous: round 1 reaches it.
        result = run_campaign("ota5t", workers=2, rounds=4,
                              steps_per_round=40, seed=0,
                              stop_at_target=True)
        assert result.reached_target
        assert result.rounds_run < 4
        assert result.sims_to_target == result.total_sims

    def test_explicit_target_respected(self):
        result = fast_campaign(target=0.0, target_from_symmetric=False)
        assert result.target == 0.0
        assert not result.reached_target

    def test_no_target(self):
        result = fast_campaign(rounds=1, target=None,
                               target_from_symmetric=False)
        assert result.target is None
        assert result.sims_to_target is None


class TestWarmStart:
    def test_warm_start_seeds_round_one(self):
        first = fast_campaign(rounds=1)
        warm = fast_campaign(rounds=1, warm_start=first.master_tables)
        # Round one of the warm campaign merges its workers into a master
        # that already holds the seed policy, so entries only grow.
        assert warm.master_entries >= first.master_entries

    def test_warm_start_snapshot_not_mutated(self):
        first = fast_campaign(rounds=1)
        before = {k: sorted(t.items()) for k, t in first.master_tables.items()}
        fast_campaign(rounds=1, warm_start=first.master_tables)
        after = {k: sorted(t.items()) for k, t in first.master_tables.items()}
        assert before == after


class TestCheckpoints:
    def test_round_checkpoints_written_and_load(self, tmp_path):
        result = fast_campaign(checkpoint_dir=tmp_path)
        files = sorted(tmp_path.glob("round_*.json"))
        assert len(files) == result.rounds_run
        tables, meta = load_tables_snapshot(files[-1])
        assert meta["round"] == result.rounds_run - 1
        assert meta["merge_how"] == result.merge_how
        assert ({k: sorted(t.items()) for k, t in tables.items()}
                == {k: sorted(t.items())
                    for k, t in result.master_tables.items()})


class TestMergeTables:
    def test_merge_into_empty_master(self):
        a = QTable()
        a.set("s", "x", 1.0)
        master = {}
        stats = merge_tables(master, {("top",): a}, how="max")
        assert isinstance(stats, MergeStats)
        assert stats.added == 1
        assert master[("top",)].get("s", "x") == 1.0

    def test_flat_placer_campaign(self):
        result = fast_campaign(placer="flat", rounds=1)
        assert set(result.master_tables) == {("agent",)}
        assert result.master_entries > 0


class TestValidation:
    def test_sa_rejected(self):
        with pytest.raises(ValueError, match="placer"):
            TrainingCampaign("ota5t", placer="sa")

    def test_bad_merge_how_rejected(self):
        with pytest.raises(ValueError, match="merge_how"):
            TrainingCampaign("ota5t", merge_how="average")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            TrainingCampaign("ota5t", workers=0)
        with pytest.raises(ValueError, match="rounds"):
            TrainingCampaign("ota5t", rounds=0)
        with pytest.raises(ValueError, match="steps_per_round"):
            TrainingCampaign("ota5t", steps_per_round=0)

    def test_jobs_and_backend_exclusive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign("ota5t", jobs=2, backend=2)


class TestVisitsMergeCampaign:
    def test_visits_merge_how_runs_and_accumulates_evidence(self):
        result = run_campaign("ota5t", workers=2, rounds=2,
                              steps_per_round=15, seed=3,
                              merge_how="visits", stop_at_target=False)
        assert result.merge_how == "visits"
        assert result.master_entries > 0
        visited = [
            entry
            for table in result.master_tables.values()
            for entry in table.entries() if entry[3] > 0
        ]
        assert visited, "merged master carries no visit counts"

    def test_visits_campaign_deterministic_across_backends(self):
        kwargs = dict(workers=2, rounds=2, steps_per_round=12, seed=5,
                      merge_how="visits", stop_at_target=False)
        serial = run_campaign("ota5t", **kwargs)
        parallel = run_campaign("ota5t", backend=2, **kwargs)
        assert serial.best_cost == parallel.best_cost
        assert serial.total_sims == parallel.total_sims
        for key, table in serial.master_tables.items():
            assert sorted(table.entries()) == sorted(
                parallel.master_tables[key].entries())


class TestTargetScale:
    def test_scale_multiplies_symmetric_target(self):
        easy = run_campaign("ota5t", workers=1, rounds=1,
                            steps_per_round=5, seed=0)
        hard = run_campaign("ota5t", workers=1, rounds=1,
                            steps_per_round=5, seed=0, target_scale=0.5)
        assert hard.target == easy.target * 0.5

    def test_explicit_target_not_scaled(self):
        result = run_campaign("ota5t", workers=1, rounds=1,
                              steps_per_round=5, seed=0, target=0.25,
                              target_from_symmetric=False,
                              target_scale=0.5)
        assert result.target == 0.25

    def test_bad_scale_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="target_scale"):
            run_campaign("ota5t", target_scale=0.0)


class TestVisitEvidenceAccounting:
    def test_round_warm_start_does_not_double_count_evidence(self):
        """Workers warm-start from a visit-stripped master: counts they
        ship back mean 'updates performed this round', so the round-end
        merge sums genuine evidence instead of re-counting the master's
        own history once per worker."""
        from repro.core.qlearning import QTable
        from repro.train.campaign import merge_tables, strip_visits

        master = {("top",): QTable()}
        master[("top",)].set("s", "a", 1.0, visits=5)

        shipped = strip_visits(master)
        assert shipped[("top",)].get("s", "a") == 1.0
        assert shipped[("top",)].visits("s", "a") == 0
        # The worker performs two genuine Bellman updates on top.
        shipped[("top",)].record("s", "a", 2.0)
        shipped[("top",)].record("s", "a", 3.0)

        merge_tables(master, shipped, how="visits")
        # 5 historical + 2 new — not 5 + (5 inherited + 2) = 12.
        assert master[("top",)].visits("s", "a") == 7

    def test_strip_visits_does_not_mutate_the_master(self):
        from repro.core.qlearning import QTable
        from repro.train.campaign import strip_visits

        master = {("top",): QTable()}
        master[("top",)].set("s", "a", 1.0, visits=3)
        stripped = strip_visits(master)
        stripped[("top",)].record("s", "a", 9.0)
        assert master[("top",)].get("s", "a") == 1.0
        assert master[("top",)].visits("s", "a") == 3
