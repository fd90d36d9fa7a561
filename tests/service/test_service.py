"""PlacementService facade: execution, determinism, jobs, policies."""

import threading

import pytest

from repro.runtime.backend import ProcessPoolBackend, SerialBackend
from repro.runtime.spec import RunSpec, map_runs
from repro.service import PlacementRequest, TrainRequest
from repro.service.service import PlacementService

QUICK_PLACE = dict(circuit="ota5t", steps=30, seed=1)


@pytest.fixture()
def service(tmp_path):
    svc = PlacementService(policies=tmp_path / "policies")
    yield svc
    svc.close()


class TestPlace:
    def test_place_matches_direct_runtime_execution(self, service):
        """The facade adds zero behavior: the result equals running the
        request's spec directly on the runtime."""
        request = PlacementRequest(**QUICK_PLACE)
        result = service.place(request)
        outcome = map_runs([RunSpec.from_request(request)], SerialBackend())[0]
        assert result.best_cost == outcome.result.best_cost
        assert result.sims_used == outcome.result.sims_used
        assert result.metrics_object() == outcome.metrics
        assert result.placement_object().units == tuple(
            outcome.result.best_placement.units)

    def test_serial_and_process_backends_bit_identical(self, tmp_path):
        request = PlacementRequest(**QUICK_PLACE)
        with PlacementService(policies=tmp_path / "p1") as serial_svc, \
                PlacementService(policies=tmp_path / "p2",
                                 backend=ProcessPoolBackend(jobs=2)) as pool_svc:
            serial = serial_svc.place(request)
            pooled = pool_svc.place(request)
        assert serial.to_json_dict() == pooled.to_json_dict()

    def test_unknown_circuit_rejected(self, service):
        with pytest.raises(ValueError, match="unknown circuit"):
            service.place(PlacementRequest(circuit="dac", steps=10))

    def test_render_svg(self, service):
        result = service.place(PlacementRequest(**QUICK_PLACE))
        assert service.render_svg(result).startswith("<svg")


class TestTrainAndPolicies:
    def test_train_normalizes_campaign_and_stores_policy(self, service):
        request = TrainRequest(circuit="ota5t", workers=2, rounds=2,
                               steps=20, save_policy="ota5t-base",
                               stop_at_target=False)
        result = service.train(request)
        campaign = result.detail
        assert result.kind == "train"
        assert result.best_cost == campaign.best_cost
        assert result.sims_used == campaign.total_sims
        assert result.params["rounds_run"] == campaign.rounds_run
        assert result.policy == "ota5t-base@1"
        assert result.metrics is not None
        tables, meta = service.policies.load("ota5t-base")
        assert sum(t.n_entries for t in tables.values()) > 0
        assert meta["circuit"] == "ota5t"

    def test_warm_policy_feeds_placement(self, service):
        train = TrainRequest(circuit="ota5t", workers=2, rounds=1,
                             steps=20, save_policy="warm",
                             stop_at_target=False)
        service.train(train)
        warm = service.place(PlacementRequest(**QUICK_PLACE,
                                              warm_policy="warm"))
        # The stored policy reaches the worker: the served run equals a
        # direct runtime run whose spec carries the loaded tables.
        tables, __ = service.policies.load("warm")
        spec = RunSpec.from_request(PlacementRequest(**QUICK_PLACE),
                                    initial_tables=tables)
        outcome = map_runs([spec], SerialBackend())[0]
        assert warm.best_cost == outcome.result.best_cost
        assert warm.sims_used == outcome.result.sims_used

    def test_warm_policy_is_deterministic(self, service):
        service.train(TrainRequest(circuit="ota5t", workers=2, rounds=1,
                                   steps=15, save_policy="det",
                                   stop_at_target=False))
        request = PlacementRequest(**QUICK_PLACE, warm_policy="det")
        first = service.place(request)
        second = service.place(request)
        assert first.to_json_dict() == second.to_json_dict()


class TestJobManager:
    def test_submit_status_result(self, service):
        job = service.submit(PlacementRequest(**QUICK_PLACE))
        result = service.result(job, timeout=300)
        record = service.status(job)
        assert record.state == "done"
        assert record.result is result
        assert record.finished_at >= record.started_at >= record.submitted_at
        # Async execution is the same execution.
        assert result.to_json_dict() == service.place(
            PlacementRequest(**QUICK_PLACE)).to_json_dict()

    def test_jobmanager_preserves_backend_determinism(self, tmp_path):
        """Serial ≡ process-pool survives the queueing layer."""
        requests = [PlacementRequest(circuit="ota5t", steps=25, seed=s)
                    for s in (1, 2, 3)]
        payloads = {}
        for label, backend in (("serial", None),
                               ("pool", ProcessPoolBackend(jobs=2))):
            with PlacementService(policies=tmp_path / label,
                                  backend=backend, job_workers=2) as svc:
                ids = [svc.submit(r) for r in requests]
                payloads[label] = [
                    svc.result(i, timeout=600).to_json_dict() for i in ids
                ]
        assert payloads["serial"] == payloads["pool"]

    def test_failed_job_reports_error(self, service):
        job = service.submit(PlacementRequest(circuit="cm", steps=10,
                                              warm_policy="missing"))
        with pytest.raises(RuntimeError, match="failed"):
            service.result(job, timeout=60)
        assert service.status(job).state == "failed"
        assert "missing" in service.status(job).error

    def test_cancel_queued_job(self, tmp_path):
        gate = threading.Event()

        def blocking_runner(request):
            gate.wait(30)
            return None

        from repro.service.jobs import JobManager

        manager = JobManager(blocking_runner, workers=1)
        try:
            first = manager.submit(PlacementRequest(**QUICK_PLACE))
            second = manager.submit(PlacementRequest(**QUICK_PLACE))
            assert manager.cancel(second) is True
            assert manager.status(second).state == "cancelled"
            gate.set()
            manager.result(first, timeout=30)
            with pytest.raises(RuntimeError, match="cancelled"):
                manager.result(second, timeout=5)
            assert manager.status(second).state == "cancelled"
        finally:
            gate.set()
            manager.shutdown()

    def test_unknown_job_raises(self, service):
        with pytest.raises(KeyError):
            service.status("job-999")
        with pytest.raises(KeyError):
            service.result("job-999")
        counts = service.jobs.counts()
        assert set(counts) == {"queued", "running", "done", "failed",
                               "cancelled"}


class TestCustomRegistry:
    def test_custom_registry_keys_execute_and_render(self, tmp_path):
        """A service built on its own registry must place and render its
        circuits, not just validate them (a name only this registry
        knows ships as the circuit it names)."""
        from repro.service import CircuitRegistry

        registry = CircuitRegistry({"mine": "ota5t"})
        with PlacementService(registry=registry,
                              policies=tmp_path / "p") as svc:
            result = svc.place(PlacementRequest(circuit="mine", steps=20))
            assert result.circuit == "mine"
            assert result.best_cost > 0
            assert svc.render_svg(result).startswith("<svg")
            with pytest.raises(ValueError, match="unknown circuit"):
                svc.place(PlacementRequest(circuit="ghost", steps=5))
