"""Serial and parallel backends must be result-identical.

The runtime's whole contract: a run's outcome depends only on its spec,
and merging is keyed (seed, worker index), never completion order — so
``--jobs N`` changes wall-clock, not results.  Verified end-to-end here
for the Fig. 3 driver on the current mirror and for island training.
"""

import pytest

from repro.experiments import ExperimentConfig, run_fig3
from repro.runtime import ProcessPoolBackend, SerialBackend

CM_FAST = ExperimentConfig(
    name="CM", builder="cm", max_steps=40, seeds=(1, 2),
    ql_worse_tolerance=0.2,
)


class TestFig3Equivalence:
    @pytest.fixture(scope="class")
    def results(self):
        serial = run_fig3(CM_FAST, backend=SerialBackend())
        parallel = run_fig3(CM_FAST, backend=ProcessPoolBackend(jobs=2))
        return serial, parallel

    def test_rows_align(self, results):
        serial, parallel = results
        assert [r.algorithm for r in serial.rows] == \
            [r.algorithm for r in parallel.rows]
        assert serial.target == parallel.target

    def test_primaries_identical(self, results):
        serial, parallel = results
        for a, b in zip(serial.rows, parallel.rows):
            assert a.primary == b.primary, a.algorithm
            assert a.fom == b.fom, a.algorithm
            assert a.primary_runs == b.primary_runs, a.algorithm

    def test_sim_counts_identical(self, results):
        serial, parallel = results
        for a, b in zip(serial.rows, parallel.rows):
            assert a.sims_total == b.sims_total, a.algorithm
            assert a.sims_to_target == b.sims_to_target, a.algorithm
            assert a.tt_runs == b.tt_runs, a.algorithm

    def test_placements_identical(self, results):
        serial, parallel = results
        for a, b in zip(serial.rows, parallel.rows):
            assert a.placement.signature() == b.placement.signature()

    def test_jobs_config_matches_explicit_backend(self):
        # config.jobs is just another way to pick the backend.
        via_config = run_fig3(CM_FAST.with_jobs(2))
        serial = run_fig3(CM_FAST)
        assert [r.primary for r in via_config.rows] == \
            [r.primary for r in serial.rows]


class TestIslandCampaignEquivalence:
    """Serial and process-pool island campaigns must be bit-identical:
    the master policy is folded in spec order, never completion order."""

    @pytest.fixture(scope="class")
    def campaigns(self):
        from repro.train import run_campaign

        kwargs = dict(workers=3, rounds=2, steps_per_round=25, seed=4,
                      stop_at_target=False)
        serial = run_campaign("ota5t", backend=SerialBackend(), **kwargs)
        parallel = run_campaign(
            "ota5t", backend=ProcessPoolBackend(jobs=3), **kwargs)
        return serial, parallel

    def test_best_cost_and_history_identical(self, campaigns):
        serial, parallel = campaigns
        assert serial.best_cost == parallel.best_cost
        assert serial.history == parallel.history
        assert serial.total_sims == parallel.total_sims
        assert serial.sims_to_target == parallel.sims_to_target

    def test_master_tables_identical(self, campaigns):
        serial, parallel = campaigns
        assert list(serial.master_tables) == list(parallel.master_tables)
        for key in serial.master_tables:
            assert (list(serial.master_tables[key].items())
                    == list(parallel.master_tables[key].items())), key

    def test_best_placement_identical(self, campaigns):
        serial, parallel = campaigns
        assert (serial.best_placement.as_dict()
                == parallel.best_placement.as_dict())

    def test_round_reports_identical(self, campaigns):
        serial, parallel = campaigns
        for a, b in zip(serial.rounds, parallel.rounds):
            assert (a.index, a.best_cost, a.best_worker, a.sims,
                    a.master_entries) == \
                (b.index, b.best_cost, b.best_worker, b.sims,
                 b.master_entries)
            assert (a.merge.added, a.merge.updated, a.merge.kept) == \
                (b.merge.added, b.merge.updated, b.merge.kept)
