"""Unit tests for the execution backends and the RunSpec machinery."""

import pytest

from repro.netlist import five_transistor_ota
from repro.runtime import (
    ExecutionBackend,
    ProcessPoolBackend,
    RunOutcome,
    RunSpec,
    SerialBackend,
    build_block,
    execute_run,
    map_runs,
    outcomes_by_key,
    resolve_backend,
)


def _square(x):
    return x * x


def _raise(x):
    raise RuntimeError(f"worker boom on {x}")


class TestSerialBackend:
    def test_maps_in_order(self):
        assert SerialBackend().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert SerialBackend().map(_square, []) == []

    def test_propagates_exceptions(self):
        with pytest.raises(RuntimeError, match="boom"):
            SerialBackend().map(_raise, [1])

    def test_satisfies_protocol(self):
        assert isinstance(SerialBackend(), ExecutionBackend)


class TestProcessPoolBackend:
    def test_maps_in_order(self):
        backend = ProcessPoolBackend(jobs=2)
        assert backend.map(_square, list(range(10))) == [x * x for x in range(10)]

    def test_empty(self):
        assert ProcessPoolBackend(jobs=2).map(_square, []) == []

    def test_propagates_exceptions(self):
        with pytest.raises(RuntimeError, match="boom"):
            ProcessPoolBackend(jobs=2).map(_raise, [1, 2])

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            ProcessPoolBackend(jobs=0)

    def test_satisfies_protocol(self):
        assert isinstance(ProcessPoolBackend(jobs=2), ExecutionBackend)


class TestResolveBackend:
    def test_none_and_one_are_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(0), SerialBackend)
        assert isinstance(resolve_backend(1), SerialBackend)

    def test_many_jobs_is_process_pool(self):
        backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3

    def test_backend_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            resolve_backend(-1)


class TestRunSpec:
    def test_unknown_placer_rejected(self):
        with pytest.raises(ValueError, match="placer"):
            RunSpec(key=1, builder="cm", placer="genetic")

    def test_unknown_builder_name_rejected(self):
        with pytest.raises(ValueError, match="builder"):
            RunSpec(key=1, builder="decoder")

    def test_bad_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            RunSpec(key=1, builder="cm", max_steps=0)

    def test_build_block_from_name_kwargs_callable_and_block(self):
        by_name = build_block(RunSpec(key=1, builder="ota5t"))
        assert by_name.name == five_transistor_ota().name
        sized = build_block(RunSpec(
            key=1, builder="cm", builder_kwargs=(("units_per_device", 2),)))
        assert sized.circuit.total_units() == 10
        from repro.service.corpus import list_corpus

        entry = next(e for e in list_corpus() if e.name == "mirror_tree")
        by_deck = build_block(RunSpec(key=1, builder=entry.deck()))
        assert by_deck.name == "mirror_tree"
        # A callable or a built block is not data: refused at construction.
        for builder in (five_transistor_ota, five_transistor_ota()):
            with pytest.raises(TypeError, match="SpiceDeck"):
                RunSpec(key=1, builder=builder)


class TestSharedPolicySpecs:
    def test_sa_with_tables_rejected(self):
        with pytest.raises(ValueError, match="Q-learning"):
            RunSpec(key=1, builder="cm", placer="sa", return_tables=True)
        with pytest.raises(ValueError, match="Q-learning"):
            RunSpec(key=1, builder="cm", placer="sa", initial_tables={})

    def test_bad_warm_start_how_rejected(self):
        with pytest.raises(ValueError, match="warm_start_how"):
            RunSpec(key=1, builder="cm", warm_start_how="average")

    def test_return_tables_ships_snapshot(self):
        spec = RunSpec(key="t", builder="ota5t", placer="ql", seed=1,
                       max_steps=15, evaluate_best=False, return_tables=True)
        outcome = execute_run(spec)
        assert outcome.tables is not None
        assert ("top",) in outcome.tables
        assert sum(t.n_entries for t in outcome.tables.values()) > 0

    def test_tables_not_shipped_by_default(self):
        spec = RunSpec(key="t", builder="ota5t", placer="ql", seed=1,
                       max_steps=10, evaluate_best=False)
        assert execute_run(spec).tables is None

    def test_initial_tables_warm_start_worker(self):
        trained = execute_run(RunSpec(
            key="a", builder="ota5t", placer="ql", seed=1, max_steps=20,
            evaluate_best=False, return_tables=True))
        warm = execute_run(RunSpec(
            key="b", builder="ota5t", placer="ql", seed=2, max_steps=1,
            evaluate_best=False, return_tables=True,
            initial_tables=trained.tables))
        # Tables only grow, so every seeded (state, action) entry must
        # still exist in the warm worker's export (values may update).
        for key, table in trained.tables.items():
            got = warm.tables[key]
            seeded = {(s, a) for s, a, __ in table.items()}
            kept = {(s, a) for s, a, __ in got.items()}
            assert seeded <= kept

    def test_stop_at_target_stops_early(self):
        generous = execute_run(RunSpec(
            key="s", builder="ota5t", placer="ql", seed=1, max_steps=400,
            target=1e9, stop_at_target=True, evaluate_best=False))
        assert generous.result.reached_target
        assert generous.result.steps < 400


class TestExecuteRun:
    def test_produces_outcome_with_metrics_and_target(self):
        spec = RunSpec(key="r", builder="ota5t", placer="sa", seed=1,
                       max_steps=20, target_from_symmetric=True)
        outcome = execute_run(spec)
        assert isinstance(outcome, RunOutcome)
        assert outcome.key == "r"
        assert outcome.target > 0
        assert outcome.result.sims_used > 0
        assert outcome.metrics.primary_value == pytest.approx(
            outcome.metrics.primary_value)

    def test_evaluate_best_false_skips_metrics(self):
        spec = RunSpec(key="r", builder="ota5t", placer="sa", seed=1,
                       max_steps=10, evaluate_best=False)
        assert execute_run(spec).metrics is None


class TestMapRuns:
    def test_outcomes_align_with_specs(self):
        specs = [
            RunSpec(key=("sa", seed), builder="ota5t", placer="sa",
                    seed=seed, max_steps=10, evaluate_best=False)
            for seed in (5, 3, 1)
        ]
        outcomes = map_runs(specs)
        assert [o.key for o in outcomes] == [("sa", 5), ("sa", 3), ("sa", 1)]

    def test_outcomes_by_key_rejects_duplicates(self):
        outcome = RunOutcome(key="dup", result=None)
        with pytest.raises(ValueError, match="duplicate"):
            outcomes_by_key([outcome, outcome])
