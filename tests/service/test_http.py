"""HTTP layer: routes, error contract, and the serving acceptance claim —
a POST to ``/place`` reproduces the equivalent ``repro place`` run
bit-for-bit."""

import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.service import PlacementRequest
from repro.service.http import make_server, server_thread
from repro.service.service import PlacementService

QUICK = dict(circuit="ota5t", steps=30, seed=1)

# Wrongly typed /place payloads and the field each error must name.  Each
# must be refused at submit: run anyway, it would execute a different job
# (``steps``: ``true`` is 1 step; ``seed``: null draws OS entropy) or fail
# inside the job (a 500 under ``?wait=1``).
BAD_PAYLOADS = [
    pytest.param({"circuit": "cm", "steps": 10.5}, "steps", id="float-steps"),
    pytest.param({"circuit": "cm", "steps": True}, "steps", id="bool-steps"),
    pytest.param({"circuit": "cm", "steps": 5, "seed": None}, "seed",
                 id="null-seed"),
    pytest.param({"circuit": "cm", "steps": 5, "seed": "x"}, "seed",
                 id="str-seed"),
    pytest.param({"circuit": "cm", "steps": 5, "target": "x"}, "target",
                 id="str-target"),
    pytest.param({"circuit": ["cm"], "steps": 5}, "circuit",
                 id="list-circuit"),
    pytest.param({"spice": 123, "steps": 5}, "spice", id="int-spice"),
    pytest.param({"circuit": "cm", "steps": 5, "warm_policy": 7},
                 "warm_policy", id="int-warm-policy"),
]


@pytest.fixture()
def served(tmp_path):
    service = PlacementService(policies=tmp_path / "policies")
    server = make_server(service)
    server_thread(server)
    yield server.url, service
    server.shutdown()
    server.server_close()
    service.close()


def _get(url):
    with urllib.request.urlopen(url) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def _post_json(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as resp:
        return resp.status, json.loads(resp.read())


class TestRoutes:
    def test_healthz(self, served):
        url, __ = served
        status, ctype, body = _get(url + "/healthz")
        assert status == 200 and ctype == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert "cm" in payload["circuits"]
        assert payload["jobs"]["done"] == 0

    def test_circuits_and_policies(self, served):
        url, __ = served
        __, __, body = _get(url + "/circuits")
        assert json.loads(body)["circuits"] == [
            "cm", "comp", "ota", "ota5t", "ota2s"]
        __, __, body = _get(url + "/policies")
        assert json.loads(body)["policies"] == []

    def test_async_place_job_lifecycle_and_svg(self, served):
        url, service = served
        status, payload = _post_json(
            url + "/place", PlacementRequest(**QUICK).to_json_dict())
        assert status == 202
        job = payload["job"]
        assert payload["status_url"] == f"/jobs/{job}"
        deadline = time.time() + 300
        while time.time() < deadline:
            __, __, body = _get(url + f"/jobs/{job}")
            record = json.loads(body)
            if record["state"] in ("done", "failed"):
                break
            time.sleep(0.1)
        assert record["state"] == "done"
        assert record["result"]["best_cost"] > 0
        status, ctype, svg = _get(url + f"/jobs/{job}/svg")
        assert status == 200 and ctype == "image/svg+xml"
        assert svg.decode().startswith("<svg")

    def test_svg_of_unfinished_job_is_409(self, served):
        url, service = served
        # A job that fails fast (unknown warm policy) is terminal but not
        # done — its SVG must be refused, not crash the handler.
        status, payload = _post_json(
            url + "/place",
            PlacementRequest(**QUICK, warm_policy="missing").to_json_dict())
        job = payload["job"]
        deadline = time.time() + 60
        while (service.jobs.status(job).state not in ("done", "failed")
               and time.time() < deadline):
            time.sleep(0.05)
        assert service.jobs.status(job).state == "failed"
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(url + f"/jobs/{job}/svg")
        assert err.value.code == 409
        assert "not done" in json.loads(err.value.read())["error"]

    def test_error_contract(self, served):
        url, __ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(url + "/jobs/job-999")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(url + "/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(url + "/place", {"circuit": "cm", "stepz": 3})
        assert err.value.code == 400
        assert "stepz" in json.loads(err.value.read())["error"]
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(url + "/place", {"circuit": "cm", "steps": 0})
        assert err.value.code == 400
        # Unknown circuit keys are rejected at submit time (400), not
        # accepted as jobs doomed to fail.
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(url + "/place", {"circuit": "dac", "steps": 5})
        assert err.value.code == 400
        assert "unknown circuit" in json.loads(err.value.read())["error"]


@pytest.mark.parametrize("payload,field", BAD_PAYLOADS)
def test_bad_payload_rejected_by_the_schema(payload, field):
    with pytest.raises(TypeError, match=field):
        PlacementRequest.from_json_dict(payload)


class TestServingBitIdentity:
    """Acceptance: CLI, facade and HTTP produce bit-identical results."""

    def test_served_place_equals_direct_place(self, served):
        url, service = served
        request = PlacementRequest(**QUICK)
        direct = service.place(request).to_json_dict()
        status, payload = _post_json(
            url + "/place?wait=1", request.to_json_dict())
        assert status == 200
        assert payload["result"] == direct

    def test_served_place_reproduces_repro_place_cli(self, served, capsys):
        """POST /place and ``repro place`` with the same parameters print
        and serve the same numbers."""
        from repro.cli import main

        url, __ = served
        assert main(["place", "--circuit", "ota5t", "--steps", "30",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"target \(best symmetric\): (\d+\.\d+)\s+reached after "
            r"(\S+) simulations \((\d+) total\)", out)
        assert match, out

        __, payload = _post_json(
            url + "/place?wait=1",
            PlacementRequest(circuit="ota5t", steps=30,
                             seed=1).to_json_dict())
        result = payload["result"]
        assert f"{result['target']:.4f}" == match.group(1)
        assert str(result["sims_to_target"]) == match.group(2)
        assert str(result["sims_used"]) == match.group(3)
        # And the metrics line is the served metrics, rendered.
        from repro.service import metrics_from_dict

        assert metrics_from_dict(result["metrics"]).summary() in out


class TestWaitedPlace:
    """``POST /place?wait=1`` is a job like any other: journaled, visible
    at ``/jobs/<id>``, served from the result cache, counted in
    ``/metrics``."""

    @pytest.fixture()
    def served_durable(self, tmp_path):
        service = PlacementService(
            policies=tmp_path / "policies", journal_dir=tmp_path / "jobs",
            result_cache=True,
        )
        server = make_server(service)
        server_thread(server)
        yield server.url, service
        server.shutdown()
        server.server_close()
        service.close()

    def test_waited_job_is_journaled_and_visible(self, served_durable):
        url, service = served_durable
        status, payload = _post_json(
            url + "/place?wait=1", PlacementRequest(**QUICK).to_json_dict())
        assert status == 200
        job = payload["job"]
        __, __, body = _get(url + f"/jobs/{job}")
        record = json.loads(body)
        assert record["state"] == "done"
        assert record["result"] == payload["result"]
        events = [
            json.loads(line)["event"]
            for line in service.journal.path.read_text().splitlines()
            if json.loads(line)["job"] == job
        ]
        assert events == ["submitted", "running", "done"]

    def test_identical_waited_request_is_a_cache_hit(self, served_durable):
        url, __ = served_durable
        body = PlacementRequest(**QUICK).to_json_dict()
        __, first = _post_json(url + "/place?wait=1", body)
        status, second = _post_json(url + "/place?wait=1", body)
        assert status == 200
        assert second["job"] != first["job"]
        assert second["result"] == first["result"]
        __, __, raw = _get(url + f"/jobs/{second['job']}")
        assert json.loads(raw)["cached"] is True
        __, __, raw = _get(url + "/metrics?format=json")
        metrics = json.loads(raw)
        assert metrics["stats"]["result_cache_hits"] == 1
        assert metrics["jobs"]["done"] == 2

    def test_waited_resolution_error_is_400(self, served_durable):
        url, service = served_durable
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(
                url + "/place?wait=1",
                PlacementRequest(**QUICK, warm_policy="missing")
                .to_json_dict())
        assert err.value.code == 400
        assert "missing" in json.loads(err.value.read())["error"]
        # The failure is a recorded job, not a lost inline call.
        assert service.jobs.counts()["failed"] == 1

    def test_waited_unknown_circuit_is_400(self, served_durable):
        url, __ = served_durable
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(url + "/place?wait=1", {"circuit": "dac", "steps": 5})
        assert err.value.code == 400
        assert "unknown circuit" in json.loads(err.value.read())["error"]


    @pytest.mark.parametrize("payload,field", BAD_PAYLOADS)
    def test_waited_bad_payload_is_400(self, served_durable, payload,
                                       field):
        url, service = served_durable
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(url + "/place?wait=1", payload)
        assert err.value.code == 400
        assert field in json.loads(err.value.read())["error"]
        # Rejected at submit: no job was created.
        assert sum(service.jobs.counts().values()) == 0


class TestInlineSpiceServing:
    def test_spice_job_places_and_renders_svg(self, served):
        """The advertised inline-SPICE path works end to end, SVG
        included (the deck comes from the job's request, not the
        result payload)."""
        url, service = served
        deck = (
            ".model nmos40 nmos (level=1 vto=0.45 kp=0.0004 lambda=0.2 "
            "gamma=0.35 phi=0.8)\n"
            "mm1 bias bias gnd gnd nmos40 w=1e-06 l=5e-07 m=2\n"
            "mm2 out bias gnd gnd nmos40 w=1e-06 l=5e-07 m=2\n"
            "vvvdd vdd gnd dc 1.1\n"
            "iiref vdd bias dc 2e-05\n"
            "vvprobe out gnd dc 0.55\n"
        )
        status, payload = _post_json(url + "/place", {
            "spice": deck, "spice_kind": "cm", "spice_name": "mini",
            "spice_inputs": ["bias"], "spice_outputs": ["out"],
            "spice_params": {"iref": 2e-5, "vdd": 1.1,
                             "probe_sources": ["vprobe"]},
            "steps": 10, "target": 1e6,
        })
        assert status == 202
        job = payload["job"]
        deadline = time.time() + 300
        while time.time() < deadline:
            __, __, body = _get(url + f"/jobs/{job}")
            record = json.loads(body)
            if record["state"] in ("done", "failed"):
                break
            time.sleep(0.1)
        assert record["state"] == "done", record.get("error")
        assert record["result"]["circuit"] == "spice:mini"
        status, ctype, svg = _get(url + f"/jobs/{job}/svg")
        assert status == 200 and ctype == "image/svg+xml"
        assert svg.decode().startswith("<svg")
