"""The async job manager: durable submit/status/result/cancel.

A job is one typed request (:class:`PlacementRequest` /
:class:`TrainRequest`) executed by a runner callable the owning
:class:`~repro.service.service.PlacementService` provides.  Jobs run on
a thread pool — threads because the heavy lifting inside a request
already fans out over the service's :class:`ExecutionBackend` (process
pool or serial), so job threads spend their lives waiting on it.  This
split is what makes the manager deterministic: a request's *result*
depends only on the request (specs rebuild everything in the worker),
never on which thread ran it or how many jobs were in flight, so
``SerialBackend`` ≡ ``ProcessPoolBackend`` survives the queueing layer.

Job ids are sequential (``job-1``, ``job-2``, ...) in submission order.
Cancellation is queue-level: a job that has not started is marked
cancelled and never runs; a running job finishes (placement runs are
seconds-to-minutes, and killing a worker mid-simulation would poison the
backend pool).

Durability and backpressure (both opt-in):

* ``journal=`` — every state transition is durably appended to a
  :class:`~repro.service.journal.JobJournal` *before* it takes effect
  in memory; :meth:`recover` replays that journal after a crash,
  serving terminal jobs from disk and re-enqueueing interrupted ones.
* ``max_queue_depth=`` / ``max_inflight_per_client=`` — an overloaded
  manager rejects new work with :class:`QueueFullError` (the HTTP
  layer's 429 + ``Retry-After``) instead of accepting until it falls
  over.
* ``dedup=True`` — identical in-flight requests (by canonical request
  hash) share one job: a thundering herd of equal ``PlacementRequest``
  s costs one execution.  Deterministic results are what make this
  sound — every duplicate would have produced the same payload.
* ``result_cache=True`` — dedup's terminal sibling: a request identical
  to one that already *finished* gets a fresh job id that is born
  ``done`` with the finished job's result (``"cached": true`` in its
  status), skipping execution entirely.  Sound for the same reason
  dedup is — the re-run would have produced the same payload bit for
  bit.  The cached job journals a normal submitted/done pair (the
  ``done`` entry flagged ``cached``), so recovery serves it from disk
  like any other terminal job.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.runtime.faults import JournalCrash
from repro.service import journal as journal_mod
from repro.service.journal import JobJournal, ReplayedJob, max_job_number
from repro.service.requests import canonical_request_hash

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: In-flight states (count against queue and per-client limits).
INFLIGHT_STATES = (QUEUED, RUNNING)


class QueueFullError(RuntimeError):
    """The manager is at capacity; retry after ``retry_after_s``.

    Attributes:
        retry_after_s: suggested client wait (the HTTP layer's
            ``Retry-After`` header).
        reason: ``"queue_depth"`` or ``"client_inflight"``.
    """

    def __init__(self, message: str, retry_after_s: int = 1,
                 reason: str = "queue_depth"):
        super().__init__(message)
        self.retry_after_s = max(1, int(retry_after_s))
        self.reason = reason


@dataclass
class JobRecord:
    """One submitted job's lifecycle snapshot.

    Attributes:
        id: sequential job id (``"job-3"``).
        kind: request kind (``"place"`` / ``"train"``).
        request: the typed request, as submitted.
        state: one of queued/running/done/failed/cancelled.
        result: the :class:`PlacementResult` once ``done``.
        error: stringified exception once ``failed``.
        client: submitting client id (per-client backpressure), if any.
        request_hash: canonical request hash (dedup + journal), if the
            request serialises.
        recovered: replayed from a journal rather than submitted live.
        cached: served from the result cache — born ``done`` with a
            previously finished identical request's result.
        submitted_at / started_at / finished_at: wall-clock timestamps
            (``time.time()``; ``None`` until reached).
    """

    id: str
    kind: str
    request: Any
    state: str = QUEUED
    result: Any = None
    error: str | None = None
    client: str | None = None
    request_hash: str | None = None
    recovered: bool = False
    cached: bool = False
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    def status_dict(self) -> dict:
        """JSON-plain status payload (result included when done)."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.recovered:
            out["recovered"] = True
        if self.cached:
            out["cached"] = True
        if self.result is not None:
            out["result"] = self.result.to_json_dict()
        return out


@dataclass
class RecoveryReport:
    """What one journal replay restored.

    Attributes:
        served_from_journal: terminal jobs (done/failed/cancelled)
            whose results/errors now serve straight from disk.
        requeued: interrupted jobs (queued/running at crash time)
            re-enqueued for execution.
        undecodable: jobs whose journaled request no longer parses —
            registered as ``failed`` with the decode error.
    """

    served_from_journal: list[str] = field(default_factory=list)
    requeued: list[str] = field(default_factory=list)
    undecodable: list[str] = field(default_factory=list)


def validate_result_cache_bounds(
    max_entries: int | None, ttl_s: float | None
) -> None:
    """Reject nonsense cache bounds; shared by :class:`JobManager` and
    the service facade so ``repro serve`` fails at startup, not on the
    first submit to its lazily-built manager."""
    if max_entries is not None and max_entries < 1:
        raise ValueError(
            f"result_cache_max_entries must be >= 1, got {max_entries}"
        )
    if ttl_s is not None and ttl_s <= 0:
        raise ValueError(f"result_cache_ttl_s must be > 0, got {ttl_s}")


def _percentile(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank percentile of an ascending list (``None`` if empty)."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class JobManager:
    """Thread-pooled execution of typed requests with a job-table front.

    Args:
        runner: ``request -> PlacementResult`` callable (the service's
            synchronous ``execute``); must be thread-safe.
        workers: concurrent jobs.
        journal: optional :class:`JobJournal` every transition is
            durably appended to.
        max_queue_depth: reject submissions once this many jobs are
            queued (``None`` = unbounded, the historical behavior).
        max_inflight_per_client: reject a client's submissions once it
            has this many queued+running jobs (needs ``client=`` at
            submit; ``None`` = unlimited).
        dedup: share one job between identical in-flight requests.
        result_cache: serve a request identical to an already *done*
            one from its stored result without re-running (the new job
            is born terminal, flagged ``cached``).
        result_cache_max_entries: cap on distinct request hashes the
            result cache indexes; the least-recently-*served* entry is
            evicted first (``None`` = unbounded, the historical
            behavior).  Eviction only forgets the index entry — the job
            records and journal lines stay.
        result_cache_ttl_s: result-cache entries older than this (since
            their job finished) stop serving hits.  The TTL is stamped
            into each ``done`` journal entry, so a restart replaying
            the journal re-applies it to the original completion time.
    """

    def __init__(
        self,
        runner: Callable[[Any], Any],
        workers: int = 2,
        *,
        journal: JobJournal | None = None,
        max_queue_depth: int | None = None,
        max_inflight_per_client: int | None = None,
        dedup: bool = False,
        result_cache: bool = False,
        result_cache_max_entries: int | None = None,
        result_cache_ttl_s: float | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if (max_inflight_per_client is not None
                and max_inflight_per_client < 1):
            raise ValueError(
                "max_inflight_per_client must be >= 1, got "
                f"{max_inflight_per_client}"
            )
        validate_result_cache_bounds(result_cache_max_entries,
                                     result_cache_ttl_s)
        self._runner = runner
        self._workers = workers
        self._journal = journal
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_client = max_inflight_per_client
        self.dedup = dedup
        self.result_cache = result_cache
        self.result_cache_max_entries = result_cache_max_entries
        self.result_cache_ttl_s = result_cache_ttl_s
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}
        self._futures: dict[str, Future] = {}
        self._inflight_by_hash: dict[str, str] = {}
        #: request hash -> (id of a *done* job holding its result,
        #: completion wall-clock time); ordered oldest-served-first so
        #: the cap evicts LRU.
        self._result_by_hash: "OrderedDict[str, tuple[str, float]]" = (
            OrderedDict()
        )
        self._counter = 0
        self._shutdown = False
        self._started_monotonic = time.monotonic()
        #: Serving counters (health endpoints / load tests).
        self.stats = {
            "dedup_hits": 0,
            "result_cache_hits": 0,
            "result_cache_evicted": 0,
            "result_cache_expired": 0,
            "rejected_queue_full": 0,
            "rejected_client_limit": 0,
            "recovered": 0,
            "requeued": 0,
        }

    # ------------------------------------------------------------ internal

    def _record(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        return record

    def _append_journal(self, event: str, job_id: str, **payload) -> None:
        """Durably journal a transition (no-op without a journal).

        Raises :class:`JournalCrash` when an injected fault fires — the
        transition is then treated as not having happened, exactly as
        if the process had died mid-write.
        """
        if self._journal is not None:
            self._journal.append(event, job_id, **payload)

    def _drop_inflight_hash(self, record: JobRecord) -> None:
        # Caller holds the lock.  Only unmap the hash if it still points
        # at this job (a later duplicate may have re-mapped it).
        if (record.request_hash is not None
                and self._inflight_by_hash.get(record.request_hash)
                == record.id):
            del self._inflight_by_hash[record.request_hash]

    def _cache_store(
        self, request_hash: str, job_id: str, done_t: float,
        ttl_s: float | None = None,
    ) -> None:
        """Index a finished job's result for cache hits (lock held).

        Entries past their TTL never land (a replay may offer stale
        ones); the LRU cap evicts the least-recently-served entry.
        """
        ttl = ttl_s if ttl_s is not None else self.result_cache_ttl_s
        if ttl is not None and time.time() - done_t > ttl:
            self.stats["result_cache_expired"] += 1
            return
        self._result_by_hash[request_hash] = (job_id, done_t)
        self._result_by_hash.move_to_end(request_hash)
        while (self.result_cache_max_entries is not None
               and len(self._result_by_hash)
               > self.result_cache_max_entries):
            self._result_by_hash.popitem(last=False)
            self.stats["result_cache_evicted"] += 1

    def _cache_lookup(self, request_hash: str) -> str | None:
        """Job id serving this hash, or ``None`` (lock held).

        A hit refreshes the entry's LRU position; an expired entry is
        dropped on the spot, so TTL'd results age out lazily.
        """
        entry = self._result_by_hash.get(request_hash)
        if entry is None:
            return None
        job_id, done_t = entry
        if (self.result_cache_ttl_s is not None
                and time.time() - done_t > self.result_cache_ttl_s):
            del self._result_by_hash[request_hash]
            self.stats["result_cache_expired"] += 1
            return None
        self._result_by_hash.move_to_end(request_hash)
        return job_id

    def _queued_count(self) -> int:
        return sum(
            1 for r in self._records.values() if r.state == QUEUED
        )

    def _client_inflight(self, client: str) -> int:
        return sum(
            1 for r in self._records.values()
            if r.client == client and r.state in INFLIGHT_STATES
        )

    def _run(self, job_id: str) -> Any:
        with self._lock:
            record = self._records[job_id]
            if record.state == CANCELLED:
                raise CancelledError(job_id)
            record.state = RUNNING
            record.started_at = time.time()
            self._append_journal(journal_mod.RUNNING, job_id)
        try:
            result = self._runner(record.request)
            payload = (
                result.to_json_dict()
                if hasattr(result, "to_json_dict") else None
            )
            with self._lock:
                # Journal first: a result is not "done" until it is
                # durable.  A journal crash here falls through to the
                # failure path below — in memory the job fails, on disk
                # the torn "done" line is dropped at replay and the job
                # re-runs, deterministically, to the same result.
                done_extra = (
                    {"ttl_s": self.result_cache_ttl_s}
                    if self.result_cache_ttl_s is not None else {}
                )
                self._append_journal(
                    journal_mod.DONE, job_id, result=payload, **done_extra
                )
                record.state = DONE
                record.result = result
                record.finished_at = time.time()
                self._drop_inflight_hash(record)
                if self.result_cache and record.request_hash is not None:
                    self._cache_store(
                        record.request_hash, job_id, record.finished_at
                    )
            return result
        except Exception as exc:  # noqa: BLE001 — stored, not swallowed
            with self._lock:
                record.state = FAILED
                record.error = f"{type(exc).__name__}: {exc}"
                record.finished_at = time.time()
                self._drop_inflight_hash(record)
                try:
                    self._append_journal(
                        journal_mod.FAILED, job_id, error=record.error
                    )
                except JournalCrash:
                    pass  # the journal is dead; in-memory state stands
            raise

    def _submit_cached(
        self,
        source_id: str,
        *,
        kind: str,
        request: Any,
        request_payload: dict | None,
        client: str | None,
        request_hash: str | None,
    ) -> str:
        """Register a new job born ``done`` with a cached result.

        Caller holds the lock.  The job journals a normal
        submitted/done pair (``done`` flagged ``cached``) so recovery
        replays it as terminal; it never touches the thread pool, so
        it bypasses queue-depth and per-client limits — a cache hit
        costs nothing to serve.
        """
        source = self._records[source_id]
        self._counter += 1
        job_id = f"job-{self._counter}"
        payload = (
            source.result.to_json_dict()
            if hasattr(source.result, "to_json_dict") else None
        )
        self._append_journal(
            journal_mod.SUBMITTED, job_id, kind=kind,
            request=request_payload, client=client,
            request_hash=request_hash,
        )
        done_extra = (
            {"ttl_s": self.result_cache_ttl_s}
            if self.result_cache_ttl_s is not None else {}
        )
        self._append_journal(
            journal_mod.DONE, job_id, result=payload, cached=True,
            **done_extra,
        )
        now = time.time()
        record = JobRecord(
            id=job_id, kind=kind, request=request, state=DONE,
            result=source.result, client=client,
            request_hash=request_hash, cached=True, finished_at=now,
        )
        future: Future = Future()
        future.set_result(source.result)
        self._records[job_id] = record
        self._futures[job_id] = future
        self.stats["result_cache_hits"] += 1
        return job_id

    # -------------------------------------------------------------- public

    def submit(self, request: Any, *, client: str | None = None) -> str:
        """Queue a request; returns its job id immediately.

        A ``result_cache`` hit returns a fresh job id that is already
        ``done`` (its status carries ``"cached": true``).

        Raises:
            RuntimeError: the manager has been shut down.
            QueueFullError: queue depth or the client's in-flight limit
                is reached (HTTP serves this as 429 + ``Retry-After``).
        """
        kind = "train" if type(request).__name__ == "TrainRequest" else "place"
        try:
            request_hash = canonical_request_hash(request)
            request_payload = request.to_json_dict()
        except (AttributeError, TypeError):
            request_hash = None
            request_payload = None
        with self._lock:
            if self._shutdown:
                raise RuntimeError(
                    "job manager is shut down; submission rejected"
                )
            cached_source = (
                self._cache_lookup(request_hash)
                if self.result_cache and request_hash is not None
                else None
            )
            if cached_source is not None:
                return self._submit_cached(
                    cached_source, kind=kind, request=request,
                    request_payload=request_payload, client=client,
                    request_hash=request_hash,
                )
            if (self.dedup and request_hash is not None
                    and request_hash in self._inflight_by_hash):
                self.stats["dedup_hits"] += 1
                return self._inflight_by_hash[request_hash]
            queued = self._queued_count()
            if (self.max_queue_depth is not None
                    and queued >= self.max_queue_depth):
                self.stats["rejected_queue_full"] += 1
                raise QueueFullError(
                    f"job queue is full ({queued} queued, depth limit "
                    f"{self.max_queue_depth})",
                    retry_after_s=math.ceil(queued / self._workers),
                    reason="queue_depth",
                )
            if (client is not None
                    and self.max_inflight_per_client is not None):
                inflight = self._client_inflight(client)
                if inflight >= self.max_inflight_per_client:
                    self.stats["rejected_client_limit"] += 1
                    raise QueueFullError(
                        f"client {client!r} has {inflight} jobs in "
                        f"flight (limit {self.max_inflight_per_client})",
                        retry_after_s=math.ceil(
                            inflight / self._workers
                        ),
                        reason="client_inflight",
                    )
            self._counter += 1
            job_id = f"job-{self._counter}"
            # Journal before publishing: if the durable record cannot be
            # written the submission must not exist.
            self._append_journal(
                journal_mod.SUBMITTED, job_id, kind=kind,
                request=request_payload, client=client,
                request_hash=request_hash,
            )
            self._records[job_id] = JobRecord(
                id=job_id, kind=kind, request=request, client=client,
                request_hash=request_hash,
            )
            if self.dedup and request_hash is not None:
                self._inflight_by_hash[request_hash] = job_id
            # Publish record and future atomically: job ids are
            # predictable, so a concurrent cancel()/result() must never
            # see the record without its future.  (submit() only queues
            # — the pooled thread blocks on this same lock in _run, so
            # no deadlock.)
            self._futures[job_id] = self._pool.submit(self._run, job_id)
        return job_id

    def status(self, job_id: str) -> JobRecord:
        """Current lifecycle snapshot of one job.

        Raises:
            KeyError: unknown job id.
        """
        with self._lock:
            return self._record(job_id)

    def result(self, job_id: str, timeout: float | None = None) -> Any:
        """Block until a job finishes and return its result.

        Raises:
            KeyError: unknown job id.
            RuntimeError: the job failed or was cancelled.
            TimeoutError: ``timeout`` elapsed first.
        """
        future = self._futures.get(job_id)
        if future is None:
            raise KeyError(f"unknown job {job_id!r}")
        try:
            return future.result(timeout=timeout)
        except CancelledError as exc:
            raise RuntimeError(f"job {job_id} was cancelled") from exc
        except FutureTimeoutError:
            # On 3.10 this is not the builtin TimeoutError; unify them.
            raise TimeoutError(
                f"job {job_id} still running after {timeout}s"
            ) from None
        except Exception as exc:
            raise RuntimeError(f"job {job_id} failed: {exc}") from exc

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/finished jobs are not touched.

        Returns:
            ``True`` if the job will never run, ``False`` otherwise.

        The whole check-mark-cancel sequence holds the manager lock, so
        a job transitioning to running mid-call settles exactly one
        way: either this call wins the lock first (the record is marked
        cancelled and ``_run`` — which takes the same lock before
        touching the record — raises ``CancelledError`` without
        running), or ``_run`` wins and this call observes ``running``
        and returns ``False``.  No interleaving leaves the record and
        the future disagreeing.
        """
        with self._lock:
            record = self._record(job_id)
            if record.state != QUEUED:
                return record.state == CANCELLED
            self._append_journal(journal_mod.CANCELLED, job_id)
            record.state = CANCELLED
            record.finished_at = time.time()
            self._drop_inflight_hash(record)
            # Best-effort: also drop it from the pool queue if still
            # there (under the same lock — see the docstring).
            self._futures[job_id].cancel()
        return True

    def jobs(self) -> list[JobRecord]:
        """All job records, submission order."""
        with self._lock:
            return list(self._records.values())

    def counts(self) -> dict[str, int]:
        """State → job count (for health endpoints)."""
        out = {s: 0 for s in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        with self._lock:
            for record in self._records.values():
                out[record.state] += 1
        return out

    def metrics(self) -> dict:
        """Operational snapshot (the ``/metrics`` endpoint's payload).

        JSON-plain throughout:

        * ``jobs`` — state → count; ``queue_depth`` repeats the queued
          count for scrapers.
        * ``jobs_per_s`` — done jobs over manager uptime.
        * ``latency_s.p50`` / ``.p99`` — nearest-rank percentiles of
          started→finished for jobs that actually executed here
          (cached and journal-served jobs never started, so they
          cannot drag the latency distribution toward zero).
        * ``sims_per_job`` — mean simulator evaluations per done job,
          read off each result's ``sims_used``.
        * ``stats`` — the serving counters (dedup hits, cache hits,
          rejections, recovery tallies).
        """
        with self._lock:
            counts = {
                s: 0 for s in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
            }
            durations: list[float] = []
            sims: list[int] = []
            for record in self._records.values():
                counts[record.state] += 1
                if record.state != DONE:
                    continue
                if (record.started_at is not None
                        and record.finished_at is not None):
                    durations.append(
                        record.finished_at - record.started_at
                    )
                sims_used = getattr(record.result, "sims_used", None)
                if sims_used is not None:
                    sims.append(int(sims_used))
            uptime_s = time.monotonic() - self._started_monotonic
            stats = dict(self.stats)
            cache_entries = len(self._result_by_hash)
        durations.sort()
        return {
            "result_cache": {
                "entries": cache_entries,
                "max_entries": self.result_cache_max_entries,
                "ttl_s": self.result_cache_ttl_s,
            },
            "uptime_s": uptime_s,
            "jobs": counts,
            "queue_depth": counts[QUEUED],
            "jobs_per_s": (
                counts[DONE] / uptime_s if uptime_s > 0 else 0.0
            ),
            "latency_s": {
                "p50": _percentile(durations, 0.50),
                "p99": _percentile(durations, 0.99),
            },
            "sims_per_job": (
                sum(sims) / len(sims) if sims else None
            ),
            "stats": stats,
        }

    # ------------------------------------------------------------ recovery

    def recover(
        self,
        request_decoder: Callable[[str, dict], Any],
        result_decoder: Callable[[dict], Any],
    ) -> RecoveryReport:
        """Rebuild the job table from this manager's journal.

        Call once, on a fresh manager, before any live submission.
        Terminal jobs (done/failed/cancelled) are registered with their
        journaled results/errors and completed futures — status and
        result queries serve from the journal without re-running
        anything.  Interrupted jobs (queued/running at crash time) are
        re-enqueued under their original ids; deterministic execution
        makes the re-run's result bit-identical to the one the crash
        destroyed.  The job-id counter resumes past the highest
        journaled id.

        Args:
            request_decoder: ``(kind, request_json) -> typed request``.
            result_decoder: ``result_json -> PlacementResult``.
        """
        if self._journal is None:
            raise RuntimeError("recover() needs a journal")
        replayed = journal_mod.replay_journal(self._journal.entries())
        report = RecoveryReport()
        with self._lock:
            if self._records:
                raise RuntimeError(
                    "recover() must run before any live submission"
                )
            self._counter = max(self._counter, max_job_number(replayed))
        for job in replayed:
            self._restore(job, request_decoder, result_decoder, report)
        self.stats["recovered"] += len(replayed)
        self.stats["requeued"] += len(report.requeued)
        return report

    def _restore(
        self,
        job: ReplayedJob,
        request_decoder: Callable[[str, dict], Any],
        result_decoder: Callable[[dict], Any],
        report: RecoveryReport,
    ) -> None:
        record = JobRecord(
            id=job.id, kind=job.kind, request=None, client=job.client,
            request_hash=job.request_hash, recovered=True,
        )
        future: Future = Future()
        try:
            record.request = request_decoder(job.kind, job.request or {})
        except Exception as exc:  # noqa: BLE001 — recovery must not die
            record.state = FAILED
            record.error = (
                f"journaled request no longer decodes: "
                f"{type(exc).__name__}: {exc}"
            )
            record.finished_at = time.time()
            future.set_exception(RuntimeError(record.error))
            report.undecodable.append(job.id)
            with self._lock:
                self._records[job.id] = record
                self._futures[job.id] = future
            return
        if job.state == journal_mod.DONE:
            record.state = DONE
            record.result = result_decoder(job.result or {})
            record.cached = job.cached
            record.finished_at = time.time()
            future.set_result(record.result)
            report.served_from_journal.append(job.id)
        elif job.state == journal_mod.FAILED:
            record.state = FAILED
            record.error = job.error or "failed (no stored error)"
            record.finished_at = time.time()
            future.set_exception(RuntimeError(record.error))
            report.served_from_journal.append(job.id)
        elif job.state == journal_mod.CANCELLED:
            record.state = CANCELLED
            record.finished_at = time.time()
            future.cancel()
            report.served_from_journal.append(job.id)
        else:  # submitted/running — interrupted mid-flight: re-enqueue
            record.state = QUEUED
            with self._lock:
                self._records[job.id] = record
                if self.dedup and record.request_hash is not None:
                    self._inflight_by_hash[record.request_hash] = job.id
                self._futures[job.id] = self._pool.submit(
                    self._run, job.id
                )
            report.requeued.append(job.id)
            return
        with self._lock:
            self._records[job.id] = record
            self._futures[job.id] = future
            if (record.state == DONE and self.result_cache
                    and record.request_hash is not None):
                # Re-seed against the *journaled* completion time and
                # TTL, not the replay time — entries that aged out while
                # the process was down must not come back, and the LRU
                # cap applies across the replay too.
                self._cache_store(
                    record.request_hash, job.id,
                    job.done_t if job.done_t is not None else time.time(),
                    ttl_s=job.ttl_s,
                )

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running jobs."""
        with self._lock:
            self._shutdown = True
        self._pool.shutdown(wait=wait)
