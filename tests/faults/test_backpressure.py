"""Backpressure and graceful degradation: bounded queues, per-client
limits, request dedup, and the HTTP 429/503 contract."""

import json
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest

from repro.service import PlacementRequest
from repro.service.http import make_server, server_thread
from repro.service.jobs import JobManager, QueueFullError
from repro.service.service import PlacementService


@dataclass(frozen=True)
class FakeRequest:
    seed: int

    def to_json_dict(self):
        return {"seed": self.seed}


@dataclass
class FakeResult:
    value: int

    def to_json_dict(self):
        return {"value": self.value}


class _Gate:
    """A runner that blocks every job until released (deterministic
    queue construction: no timing races)."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, request):
        self.entered.set()
        assert self.release.wait(30)
        return FakeResult(request.seed)

    def start_one(self, manager, request, **kwargs):
        """Submit and wait until the job is actually RUNNING."""
        job = manager.submit(request, **kwargs)
        assert self.entered.wait(30)
        self.entered.clear()
        return job


class TestQueueDepth:
    def test_full_queue_rejects_with_retry_after(self):
        gate = _Gate()
        manager = JobManager(gate, workers=1, max_queue_depth=2)
        running = gate.start_one(manager, FakeRequest(1))
        manager.submit(FakeRequest(2))
        manager.submit(FakeRequest(3))
        with pytest.raises(QueueFullError) as excinfo:
            manager.submit(FakeRequest(4))
        assert excinfo.value.reason == "queue_depth"
        assert excinfo.value.retry_after_s >= 1
        assert manager.stats["rejected_queue_full"] == 1
        # Draining the queue reopens it.
        gate.release.set()
        manager.result(running, timeout=30)
        manager.result("job-3", timeout=30)
        manager.submit(FakeRequest(4))
        manager.shutdown()

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            JobManager(lambda r: r, max_queue_depth=0)
        with pytest.raises(ValueError, match="max_inflight_per_client"):
            JobManager(lambda r: r, max_inflight_per_client=0)


class TestPerClientLimit:
    def test_limit_is_per_client(self):
        gate = _Gate()
        manager = JobManager(gate, workers=1, max_inflight_per_client=1)
        gate.start_one(manager, FakeRequest(1), client="alice")
        with pytest.raises(QueueFullError) as excinfo:
            manager.submit(FakeRequest(2), client="alice")
        assert excinfo.value.reason == "client_inflight"
        # Other clients — and anonymous submitters — are unaffected.
        manager.submit(FakeRequest(3), client="bob")
        manager.submit(FakeRequest(4))
        assert manager.stats["rejected_client_limit"] == 1
        gate.release.set()
        manager.shutdown()


class TestDedup:
    def test_identical_inflight_requests_share_one_job(self):
        gate = _Gate()
        manager = JobManager(gate, workers=1, dedup=True)
        first = gate.start_one(manager, FakeRequest(1))
        again = manager.submit(FakeRequest(1))
        other = manager.submit(FakeRequest(2))
        assert again == first
        assert other != first
        assert manager.stats["dedup_hits"] == 1
        gate.release.set()
        manager.result(first, timeout=30)
        manager.result(other, timeout=30)
        # Once settled, an identical request is NEW work again.
        fresh = manager.submit(FakeRequest(1))
        assert fresh != first
        gate.release.set()
        manager.shutdown()

    def test_dedup_off_by_default(self):
        gate = _Gate()
        manager = JobManager(gate, workers=1)
        a = gate.start_one(manager, FakeRequest(1))
        b = manager.submit(FakeRequest(1))
        assert a != b
        gate.release.set()
        manager.shutdown()


@pytest.fixture()
def throttled_server(tmp_path):
    """A served PlacementService whose job manager is gated + bounded."""
    service = PlacementService(policies=tmp_path / "policies")
    gate = _Gate()
    service._jobs = JobManager(gate, workers=1, max_queue_depth=1,
                               max_inflight_per_client=2)
    server = make_server(service)
    server_thread(server)
    yield server.url, service, gate
    gate.release.set()
    server.shutdown()
    server.server_close()
    service.close()


def _post_place(url, seed, client=None):
    payload = PlacementRequest(circuit="cm", steps=5, seed=seed)
    headers = {"Content-Type": "application/json"}
    if client:
        headers["X-Client-Id"] = client
    request = urllib.request.Request(
        url + "/place", data=json.dumps(payload.to_json_dict()).encode(),
        headers=headers,
    )
    with urllib.request.urlopen(request) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


class TestHTTPContract:
    def test_429_with_retry_after_when_queue_full(self, throttled_server):
        url, service, gate = throttled_server
        status, __, payload = _post_place(url, 1)
        assert status == 202
        assert gate.entered.wait(30)
        status, __, __ = _post_place(url, 2)
        assert status == 202  # fills the queue (depth 1)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_place(url, 3)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        body = json.loads(excinfo.value.read())
        assert "queue" in body["error"]
        assert body["retry_after_s"] >= 1

    def test_waited_submit_is_admitted_like_any_other(self, throttled_server):
        # ``?wait=1`` goes through the same queue limits: no inline
        # execution around a full queue.
        url, service, gate = throttled_server
        assert _post_place(url, 1)[0] == 202
        assert gate.entered.wait(30)
        assert _post_place(url, 2)[0] == 202  # fills the queue (depth 1)
        payload = PlacementRequest(circuit="cm", steps=5, seed=3)
        request = urllib.request.Request(
            url + "/place?wait=1",
            data=json.dumps(payload.to_json_dict()).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1

    def test_429_per_client_limit_uses_x_client_id(self, throttled_server):
        url, service, gate = throttled_server
        assert _post_place(url, 1, client="alice")[0] == 202
        assert gate.entered.wait(30)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            # alice has 1 running + this would be a 2nd in-flight; the
            # per-client cap is 2, so push a queued one first.
            _post_place(url, 2, client="alice")
            _post_place(url, 3, client="alice")
        assert excinfo.value.code == 429

    def test_503_while_draining(self, throttled_server):
        url, service, gate = throttled_server
        service.begin_drain()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_place(url, 1)
        assert excinfo.value.code == 503
        assert "Retry-After" in excinfo.value.headers
        # Health reports the drain; reads keep working.
        with urllib.request.urlopen(url + "/healthz") as resp:
            health = json.loads(resp.read())
        assert health["status"] == "draining"

    def test_healthz_reports_serving_stats(self, throttled_server):
        url, service, gate = throttled_server
        with urllib.request.urlopen(url + "/healthz") as resp:
            health = json.loads(resp.read())
        assert health["serving"] == {
            "dedup_hits": 0, "rejected_queue_full": 0,
            "rejected_client_limit": 0, "recovered": 0, "requeued": 0,
            "result_cache_hits": 0, "result_cache_evicted": 0,
            "result_cache_expired": 0,
        }
