"""Worker death and pool recovery — the acceptance rail: a killed
worker costs only the lost spec's re-execution, the pool is rebuilt, and
every surviving result is bit-identical to a fault-free run."""

import multiprocessing
import os

import pytest

from repro.runtime import (
    FaultPlan,
    ProcessPoolBackend,
    RetryPolicy,
    RunSpec,
    SerialBackend,
    WorkerTaskError,
    map_runs,
    resilient_map_runs,
)
from repro.runtime import spec as spec_module
from repro.runtime.backend import ATTEMPT_KILLED

FAST = dict(backoff_base_s=0.0, jitter_frac=0.0)


def _specs(seeds=(1, 2, 3)):
    return [
        RunSpec(key=("run", seed), builder="cm", placer="ql", seed=seed,
                max_steps=5, evaluate_best=False)
        for seed in seeds
    ]


def _fingerprint(outcome):
    r = outcome.result
    return (outcome.key, r.best_cost, r.sims_used,
            tuple(map(tuple, r.history)))


#: Marker file a dying ``execute_run`` creates; set per test.
_MARKER = None
_REAL_EXECUTE_RUN = spec_module.execute_run


def _die_once(spec):
    """``execute_run`` whose first call (across forked workers) kills
    its worker process."""
    if not os.path.exists(_MARKER):
        open(_MARKER, "w").close()
        os._exit(1)
    return _REAL_EXECUTE_RUN(spec)


def _exit_on_zero(x):
    if x == 0:
        os._exit(1)
    return x


class TestWorkerDeathRecovery:
    def test_kill_on_single_worker_pool_exact_accounting(self):
        # jobs=1 serialises the pool, so worker-death attribution is
        # exact: only the killed spec is charged a second attempt.
        plan = FaultPlan.build({(("run", 2), 1): "kill"})
        report = resilient_map_runs(
            _specs(),
            backend=ProcessPoolBackend(jobs=1),
            retry=RetryPolicy(max_attempts=3, **FAST),
            faults=plan,
        )
        assert report.attempts == {("run", 1): 1, ("run", 2): 2, ("run", 3): 1}
        assert report.worker_deaths == 1
        assert report.pool_rebuilds >= 1
        assert report.quarantined == ()
        baseline = map_runs(_specs(), SerialBackend())
        assert [_fingerprint(o) for o in report.outcomes] == [
            _fingerprint(o) for o in baseline]

    def test_serial_kill_accounts_like_single_worker_pool(self):
        plan = FaultPlan.build({(("run", 2), 1): "kill"})
        kwargs = dict(retry=RetryPolicy(max_attempts=3, **FAST), faults=plan)
        serial = resilient_map_runs(
            _specs(), backend=SerialBackend(), **kwargs)
        pooled = resilient_map_runs(
            _specs(), backend=ProcessPoolBackend(jobs=1), **kwargs)
        assert serial.attempts == pooled.attempts
        assert serial.worker_deaths == pooled.worker_deaths == 1
        assert [_fingerprint(o) for o in serial.outcomes] == [
            _fingerprint(o) for o in pooled.outcomes]

    def test_repeated_kills_quarantine_as_worker_killed(self):
        plan = FaultPlan.build({
            (("run", 1), 1): "kill",
            (("run", 1), 2): "kill",
        })
        report = resilient_map_runs(
            _specs((1,)),
            backend=ProcessPoolBackend(jobs=1),
            retry=RetryPolicy(max_attempts=2, **FAST),
            faults=plan,
        )
        failed = report.outcomes[0]
        assert failed.error_type == "WorkerKilled"
        assert failed.attempts == 2
        assert report.worker_deaths == 2

    def test_many_worker_pool_results_survive_a_kill(self):
        # With >1 workers, collateral attempt counts may vary (a death
        # can interrupt whichever neighbours were mid-flight) — but
        # results never do, and nothing is lost or quarantined.
        plan = FaultPlan.build({(("run", 2), 1): "kill"})
        report = resilient_map_runs(
            _specs(),
            backend=ProcessPoolBackend(jobs=2),
            retry=RetryPolicy(max_attempts=4, **FAST),
            faults=plan,
        )
        assert report.quarantined == ()
        assert report.worker_deaths >= 1
        baseline = map_runs(_specs(), SerialBackend())
        assert [_fingerprint(o) for o in report.outcomes] == [
            _fingerprint(o) for o in baseline]


class TestPlainMapRunsSurvivesDeath:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the dying execute_run reaches workers by fork",
    )
    def test_pool_worker_death_is_rerun(self, tmp_path, monkeypatch):
        baseline = map_runs(_specs(), SerialBackend())
        monkeypatch.setitem(globals(), "_MARKER", str(tmp_path / "died"))
        monkeypatch.setattr(spec_module, "execute_run", _die_once)
        outcomes = map_runs(_specs(), ProcessPoolBackend(jobs=2))
        assert os.path.exists(_MARKER)
        assert [_fingerprint(o) for o in outcomes] == [
            _fingerprint(o) for o in baseline]


class TestWorkerErrorAttribution:
    def test_pool_map_exception_names_the_originating_spec(self):
        bad = RunSpec(key=("run", 7), builder="cm", seed=7, max_steps=5,
                      evaluate_best=False, builder_kwargs=(("boom", 1),))
        with pytest.raises(WorkerTaskError) as excinfo:
            map_runs([bad], ProcessPoolBackend(jobs=2))
        message = str(excinfo.value)
        # The annotated error names circuit, placer and seed — no
        # anonymous remote tracebacks.
        assert "circuit='cm'" in message
        assert "seed=7" in message
        assert "boom" in message

    def test_plain_items_fall_back_to_index_labels(self):
        results, rebuilds = ProcessPoolBackend(jobs=1).map_attempts(
            _exit_on_zero, [1, 0])
        assert results[0].ok and results[0].value == 1
        assert results[1].status == ATTEMPT_KILLED
        assert results[1].error.startswith("item 1:")
        assert rebuilds == 1
