"""Stdlib HTTP JSON layer over the :class:`PlacementService`.

No framework, no dependencies — :class:`ThreadingHTTPServer` plus a
request handler speaking the typed JSON schemas of
:mod:`repro.service.requests`.  Endpoints:

========  =======================  =========================================
method    path                     does
========  =======================  =========================================
GET       ``/healthz``             liveness + registry/job counts
GET       ``/metrics``             scrape target: throughput, queue
                                   depth, job-latency percentiles,
                                   sims per job, backend worker count
                                   (Prometheus text; ``?format=json``
                                   for the raw dict)
POST      ``/place``               submit a :class:`PlacementRequest`;
                                   returns ``{"job": id}`` (202); with
                                   ``?wait=1`` the same job is awaited and
                                   ``{"job": id, "result": ...}`` (200)
POST      ``/train``               submit a :class:`TrainRequest`; same
                                   async/wait contract
GET       ``/jobs/<id>``           job status, result inlined when done
GET       ``/jobs/<id>/svg``       the finished job's layout as SVG
POST      ``/jobs/<id>/cancel``    cancel a queued job
GET       ``/policies``            stored policy snapshots
GET       ``/circuits``            registered circuit keys
========  =======================  =========================================

Error contract: schema violations are 400 with ``{"error": ...}``,
unknown jobs/paths 404, SVG of an unfinished job 409, handler crashes
500.  Backpressure: when the service's queue-depth or per-client
in-flight limit is hit, submissions get **429** with a ``Retry-After``
header (seconds); while the server is draining (SIGTERM received) they
get **503** + ``Retry-After``.  Client identity for the per-client
limit comes from the ``X-Client-Id`` header, falling back to the remote
address.  Responses are ``application/json`` except the SVG endpoint.

``repro serve`` wraps :func:`serve` — which installs a SIGTERM handler
performing a graceful drain (stop accepting, finish running jobs, flush
the journal); tests and the throughput benchmark use
:func:`make_server` with port 0 and drive the server from a thread.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.jobs import QueueFullError
from repro.service.requests import (
    SCHEMA_VERSION,
    PlacementRequest,
    TrainRequest,
)
from repro.service.service import PlacementService

#: Largest request body accepted (inline SPICE decks are small).
MAX_BODY_BYTES = 1 << 20


def _prometheus_text(payload: dict) -> str:
    """Render a :meth:`PlacementService.metrics` dict as exposition text.

    Flat gauges/counters with a ``repro_`` prefix; ``None`` values
    (e.g. latency percentiles before any job finished) are omitted
    rather than emitted as NaN.
    """
    lines: list[str] = []

    def gauge(name: str, value, help_text: str, kind: str = "gauge",
              labels: str = "") -> None:
        if value is None:
            return
        if not any(line.startswith(f"# HELP {name} ") for line in lines):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {value}")

    gauge("repro_uptime_seconds", payload.get("uptime_s"),
          "Seconds since the job manager started.")
    for state, count in (payload.get("jobs") or {}).items():
        gauge("repro_jobs", count, "Jobs by lifecycle state.",
              labels=f'{{state="{state}"}}')
    gauge("repro_queue_depth", payload.get("queue_depth"),
          "Jobs queued and not yet running.")
    gauge("repro_jobs_per_second", payload.get("jobs_per_s"),
          "Completed jobs per second of uptime.")
    latency = payload.get("latency_s") or {}
    gauge("repro_job_latency_seconds", latency.get("p50"),
          "Job execution latency percentiles.",
          labels='{quantile="0.5"}')
    gauge("repro_job_latency_seconds", latency.get("p99"),
          "Job execution latency percentiles.",
          labels='{quantile="0.99"}')
    gauge("repro_sims_per_job", payload.get("sims_per_job"),
          "Mean simulator evaluations per completed job.")
    for counter, value in (payload.get("stats") or {}).items():
        gauge("repro_serving_events_total", value,
              "Serving counters (dedup/cache hits, rejections, recovery).",
              kind="counter", labels=f'{{event="{counter}"}}')
    backend = payload.get("backend") or {}
    kind = backend.get("kind", "unknown")
    gauge("repro_backend_workers", backend.get("workers"),
          "Execution-backend worker slots currently usable.",
          labels=f'{{kind="{kind}"}}')
    return "\n".join(lines) + "\n"


class PlacementHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`PlacementService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: PlacementService,
                 quiet: bool = True):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server: PlacementHTTPServer

    # ----------------------------------------------------------- plumbing

    def log_message(self, fmt, *args):  # noqa: D102 — quiet by default
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_metrics(self, payload: dict, fmt: str) -> None:
        if fmt == "json":
            self._send_json(200, payload)
            return
        body = _prometheus_text(payload).encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str,
                         retry_after_s: int | None = None) -> None:
        payload = {"error": message}
        if retry_after_s is not None:
            payload["retry_after_s"] = retry_after_s
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(retry_after_s))
        self.end_headers()
        self.wfile.write(body)

    def _client_id(self) -> str:
        """Client identity for per-client backpressure: the explicit
        ``X-Client-Id`` header, else the remote address."""
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _read_json_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body over {MAX_BODY_BYTES} bytes")
        data = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # ------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        try:
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            service = self.server.service
            if parts == ["healthz"]:
                self._send_json(200, {
                    "status": "draining" if service.draining else "ok",
                    "schema_version": SCHEMA_VERSION,
                    "circuits": list(service.registry.keys()),
                    "jobs": service.jobs.counts(),
                    "serving": dict(service.jobs.stats),
                })
            elif parts == ["metrics"]:
                fmt = parse_qs(parsed.query).get("format", ["text"])[0]
                self._send_metrics(service.metrics(), fmt)
            elif parts == ["circuits"]:
                self._send_json(200, {"circuits": list(service.registry.keys())})
            elif parts == ["policies"]:
                self._send_json(200, {"policies": [
                    {"name": p.name, "version": p.version, "ref": p.ref,
                     "entries": p.entries, "meta": p.meta}
                    for p in service.policies.list()
                ]})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, service.status(parts[1]).status_dict())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "svg":
                record = service.status(parts[1])
                if record.state != "done":
                    self._send_error_json(
                        409, f"job {parts[1]} is {record.state}, not done"
                    )
                    return
                svg = service.render_svg(
                    record.result, request=record.request
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "image/svg+xml")
                self.send_header("Content-Length", str(len(svg)))
                self.end_headers()
                self.wfile.write(svg)
            else:
                self._send_error_json(404, f"no route for GET {parsed.path}")
        except KeyError as exc:
            self._send_error_json(404, str(exc))
        except Exception as exc:  # noqa: BLE001 — surface, don't kill thread
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _send_waited(self, service: PlacementService, job_id: str) -> None:
        """Block on a submitted job and answer ``?wait=1`` with its result.

        The job ran through the job manager like any other (journal,
        result cache, dedup, ``/metrics``).  A job that failed on a
        request-resolution error (e.g. a missing ``warm_policy``) is the
        client's fault, so it is a 400; any other failure is a 500.
        """
        try:
            result = service.result(job_id)
        except RuntimeError as exc:
            cause = exc.__cause__
            if isinstance(cause, (ValueError, KeyError)):
                self._send_error_json(400, str(cause))
            else:
                self._send_error_json(500, str(exc))
            return
        self._send_json(200, {"job": job_id, "result": result.to_json_dict()})

    def do_POST(self) -> None:  # noqa: N802
        try:
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            service = self.server.service
            if parts == ["place"] or parts == ["train"]:
                if service.draining:
                    self._send_error_json(
                        503, "service is draining; retry on a fresh "
                        "instance", retry_after_s=5,
                    )
                    return
                cls = PlacementRequest if parts == ["place"] else TrainRequest
                try:
                    request = cls.from_json_dict(self._read_json_body())
                except (ValueError, TypeError, json.JSONDecodeError) as exc:
                    self._send_error_json(400, str(exc))
                    return
                wait = parse_qs(parsed.query).get("wait", ["0"])[0]
                try:
                    job_id = service.submit(request, client=self._client_id())
                except QueueFullError as exc:
                    self._send_error_json(
                        429, str(exc), retry_after_s=exc.retry_after_s
                    )
                    return
                except (ValueError, KeyError) as exc:
                    # Unknown circuit keys are rejected at submit time.
                    self._send_error_json(400, str(exc))
                    return
                if wait in ("1", "true", "yes"):
                    self._send_waited(service, job_id)
                    return
                self._send_json(202, {
                    "job": job_id,
                    "status_url": f"/jobs/{job_id}",
                })
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                cancelled = service.cancel(parts[1])
                self._send_json(200, {"job": parts[1], "cancelled": cancelled})
            else:
                self._send_error_json(404, f"no route for POST {parsed.path}")
        except KeyError as exc:
            self._send_error_json(404, str(exc))
        except Exception as exc:  # noqa: BLE001
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")


def make_server(
    service: PlacementService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> PlacementHTTPServer:
    """Bind (but do not run) a server; ``port=0`` picks a free port."""
    return PlacementHTTPServer((host, port), service, quiet=quiet)


def serve(
    service: PlacementService | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    quiet: bool = False,
) -> None:
    """Run the HTTP layer until interrupted (the ``repro serve`` body).

    SIGTERM triggers a graceful drain: the server flips to 503 for new
    submissions, lets running jobs finish (each transition is already
    journaled as it happens), then stops the accept loop and closes the
    journal.  SIGKILL, by contrast, is what the journal exists for —
    the next ``repro serve --journal-dir`` on the same directory
    recovers everything the process had durably recorded.
    """
    service = service if service is not None else PlacementService()
    server = make_server(service, host=host, port=port, quiet=quiet)

    def _drain(signum, frame):  # noqa: ARG001 — signal-handler API
        service.begin_drain()
        # shutdown() blocks until serve_forever() exits, so it must run
        # off the loop thread the signal interrupted.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        pass  # not the main thread (embedded/test use) — no handler
    print(f"repro service listening on {server.url} "
          f"(circuits: {', '.join(service.registry.keys())})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        # A drain waits for running jobs (finish + journal them); an
        # interactive ^C keeps the old fast exit.
        service.close(wait=service.draining)


def server_thread(server: PlacementHTTPServer) -> threading.Thread:
    """Start ``serve_forever`` on a daemon thread (tests/benchmarks)."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
