"""The :class:`PlacementService` facade — every entry point's back end.

The service owns the three shared registries/stores (circuits, policies,
jobs) and executes typed requests over one :class:`ExecutionBackend`:

* ``place(request)`` / ``train(request)`` — synchronous execution,
  returning the unified :class:`PlacementResult`;
* ``submit(request)`` → ``status``/``result``/``cancel`` — the async
  path through the :class:`JobManager` (what ``/place`` and ``/train``
  serve);
* ``fig3(...)`` — the paper's three-way comparison, driven through the
  same registries.

``repro place``/``repro train`` and the HTTP server are thin clients of
this facade, so a CLI run and a served job with the same request
parameters produce bit-identical results: both build the same
:class:`RunSpec` (via ``RunSpec.from_request``) and execute it through
:func:`map_runs`, where determinism is already guaranteed spec-by-spec.

Robustness is opt-in and layered on the same seams:

* ``journal_dir=`` makes the job manager durable — every transition
  lands in an append-only journal and a service constructed over an
  existing journal replays it (``self.recovery`` says what came back);
* ``retry=`` (a :class:`RetryPolicy`) routes placement execution
  through :func:`resilient_map_runs` — worker deaths and flaky faults
  are retried with deterministic backoff, and exhausted specs surface
  as a clean ``RuntimeError`` carrying the quarantine summary;
* ``max_queue_depth=`` / ``max_inflight_per_client=`` / ``dedup=`` are
  the job manager's backpressure knobs (HTTP's 429 contract);
* ``begin_drain()`` flips the service into shutdown mode: no new
  submissions, running jobs finish, the journal is flushed.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.eval.evaluator import PlacementEvaluator
from repro.runtime.backend import ExecutionBackend, make_backend
from repro.runtime.spec import RunSpec, map_runs
from repro.service.policies import PolicyStore
from repro.service.registry import CircuitRegistry, default_registry
from repro.service.requests import (
    WARM_AUTO,
    PlacementRequest,
    PlacementResult,
    TrainRequest,
)

if TYPE_CHECKING:
    # The job manager, its journal and the retry layer load on first
    # use: a synchronous ``place`` needs none of them.
    from repro.runtime.faults import FaultPlan, JournalFault
    from repro.runtime.resilience import RetryPolicy
    from repro.service.jobs import JobManager, JobRecord
    from repro.service.journal import JobJournal

#: Where a service stores policies when the caller does not say.
DEFAULT_POLICY_DIR = "policies"


class PlacementService:
    """Facade over the circuit registry, policy store and job manager.

    Args:
        registry: circuit registry (default: the process-wide shared one).
        policies: a :class:`PolicyStore`, or a directory path for one
            (default: ``./policies``, created lazily on first save).
        backend: execution backend, an int job count, or a backend
            spec string (:func:`make_backend` semantics — ``"serial"``,
            ``"pool:N"``, ``"cluster:host:port"``) every request fans
            over.
        job_workers: concurrent async jobs in the :class:`JobManager`.
        journal_dir: directory for the durable job journal; if it
            already holds one, its jobs are recovered at construction
            (``self.recovery``) — terminal jobs serve from disk,
            interrupted ones re-enqueue.  ``None`` (default) keeps jobs
            in memory only.
        journal_fault: deterministic journal-crash injection (the chaos
            suite's knob; production passes ``None``).
        retry: :class:`RetryPolicy` for placement execution — routes
            ``place()`` through :func:`resilient_map_runs` so worker
            deaths/timeouts are retried and exhausted runs raise a
            quarantine summary instead of an anonymous traceback.
        fault_plan: deterministic execution-fault injection (tests and
            the fault benchmark; implies the resilient path).
        max_queue_depth / max_inflight_per_client / dedup: job-manager
            backpressure and request-dedup knobs (see
            :class:`JobManager`).
        result_cache: serve a repeated identical request straight from
            the first completed job's result (keyed by the canonical
            request hash; ``"cached": true`` on the job record) instead
            of re-running it.  With a journal the index survives
            restarts — recovered terminal jobs re-seed it.
        result_cache_max_entries / result_cache_ttl_s: bound the result
            cache — LRU cap on indexed request hashes and an age limit
            (stamped into journal ``done`` entries so both survive a
            restart replay); see :class:`JobManager`.
    """

    def __init__(
        self,
        *,
        registry: CircuitRegistry | None = None,
        policies: PolicyStore | str | Path | None = None,
        backend: int | str | ExecutionBackend | None = None,
        job_workers: int = 2,
        journal_dir: str | Path | None = None,
        journal_fault: JournalFault | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        max_queue_depth: int | None = None,
        max_inflight_per_client: int | None = None,
        dedup: bool = False,
        result_cache: bool = False,
        result_cache_max_entries: int | None = None,
        result_cache_ttl_s: float | None = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        if isinstance(policies, PolicyStore):
            self.policies = policies
        else:
            self.policies = PolicyStore(policies or DEFAULT_POLICY_DIR)
        self.backend = make_backend(backend)
        self.job_workers = job_workers
        self.retry = retry
        self.fault_plan = fault_plan
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_client = max_inflight_per_client
        self.dedup = dedup
        self.result_cache = result_cache
        if result_cache_max_entries is not None or result_cache_ttl_s is not None:
            from repro.service.jobs import validate_result_cache_bounds

            validate_result_cache_bounds(result_cache_max_entries,
                                         result_cache_ttl_s)
        self.result_cache_max_entries = result_cache_max_entries
        self.result_cache_ttl_s = result_cache_ttl_s
        self.draining = False
        self._jobs: JobManager | None = None
        self.journal: JobJournal | None = None
        #: :class:`~repro.service.jobs.RecoveryReport` of the journal
        #: replay done at construction (``None`` without a journal).
        self.recovery = None
        if journal_dir is not None:
            from repro.service.journal import JobJournal

            self.journal = JobJournal(journal_dir, fault=journal_fault)
            had_journal = self.journal.path.exists()
            manager = self._make_jobs()
            if had_journal:
                self.recovery = manager.recover(
                    self._decode_request, PlacementResult.from_json_dict
                )
            self._jobs = manager

    def _make_jobs(self) -> JobManager:
        from repro.service.jobs import JobManager

        return JobManager(
            self.execute,
            workers=self.job_workers,
            journal=self.journal,
            max_queue_depth=self.max_queue_depth,
            max_inflight_per_client=self.max_inflight_per_client,
            dedup=self.dedup,
            result_cache=self.result_cache,
            result_cache_max_entries=self.result_cache_max_entries,
            result_cache_ttl_s=self.result_cache_ttl_s,
        )

    @staticmethod
    def _decode_request(kind: str, data: dict) -> Any:
        """Journal-replay decoder: kind + canonical JSON → typed request."""
        if kind == "train":
            return TrainRequest.from_json_dict(data)
        return PlacementRequest.from_json_dict(data)

    @property
    def jobs(self) -> JobManager:
        """The async job manager, created on first use.

        Lazy so synchronous clients (every CLI command) never spin up a
        thread pool they will not touch — except with a journal, where
        it is built (and recovered) eagerly at construction.
        """
        if self._jobs is None:
            self._jobs = self._make_jobs()
        return self._jobs

    # ------------------------------------------------------------ internal

    def _warm_tables(self, ref: str | None):
        if ref is None:
            return None
        tables, __ = self.policies.load(ref)
        return tables

    def _request_block(self, request: PlacementRequest):
        """The live block a placement request describes (for zoo matching)."""
        if request.spice is not None:
            return request.deck().build()
        return self.registry.build(request.circuit)

    def _auto_warm(self, request: PlacementRequest):
        """Zoo-matched warm start for a ``warm_policy="auto"`` request.

        Returns ``(tables_or_None, report)``.  An empty store — or no
        signature match — is not an error: the run simply starts cold
        and the echoed report says why.
        """
        from repro.zoo import ZooIndex

        match = ZooIndex(self.policies).match(
            self._request_block(request),
            placer=request.placer,
            **request.zoo,
        )
        return (None if match.is_empty else match.tables), match.report

    def _check_circuit(self, request: Any) -> None:
        circuit = getattr(request, "circuit", None)
        if circuit is not None and circuit not in self.registry:
            raise ValueError(
                f"unknown circuit {circuit!r}; "
                f"registered: {sorted(self.registry.keys())}"
            )
        spice = getattr(request, "spice", None)
        if spice is not None:
            # Run the ingestion pipeline's validation stage up front: a
            # deck with constraint errors is a 400 at submit time, not a
            # failed job later (ConstraintValidationError is a ValueError).
            from repro.netlist.constraints import ingest_deck

            deck = request.deck()
            result = ingest_deck(deck.text, name=deck.name, kind=deck.kind,
                                 params=dict(deck.params))
            result.report.raise_if_errors()

    # ----------------------------------------------------- sync execution

    def execute(self, request: Any) -> PlacementResult:
        """Run any typed request synchronously (the job-manager runner)."""
        if isinstance(request, TrainRequest):
            return self.train(request)
        if isinstance(request, PlacementRequest):
            return self.place(request)
        raise TypeError(
            f"expected PlacementRequest or TrainRequest, got {type(request)!r}"
        )

    def place(self, request: PlacementRequest) -> PlacementResult:
        """Execute one placement request over the service backend.

        With a ``retry`` policy (or an injected ``fault_plan``) the run
        goes through :func:`resilient_map_runs`: transient worker
        deaths, injected faults and timeouts are retried with
        deterministic backoff, and the surviving result is bit-identical
        to the plain path's.  A run that exhausts its retry budget
        raises ``RuntimeError`` carrying the structured quarantine
        summary (circuit, placer, seed, attempts, final error).
        """
        self._check_circuit(request)
        zoo_report = None
        if request.warm_policy == WARM_AUTO:
            initial_tables, zoo_report = self._auto_warm(request)
        else:
            initial_tables = self._warm_tables(request.warm_policy)
        resilient = self.retry is not None or self.fault_plan is not None
        spec = RunSpec.from_request(
            request,
            registry=self.registry,
            # Fault plans address specs by key; include the seed so
            # per-seed faults can be scripted against served batches.
            key=("place", request.seed) if resilient else "place",
            initial_tables=initial_tables,
        )
        if resilient:
            from repro.runtime.resilience import FailedRun, resilient_map_runs

            report = resilient_map_runs(
                [spec], self.backend,
                retry=self.retry, faults=self.fault_plan,
            )
            outcome = report.outcomes[0]
            if isinstance(outcome, FailedRun):
                raise RuntimeError(outcome.summary())
        else:
            outcome = map_runs([spec], self.backend)[0]
        result = PlacementResult.from_outcome(request, outcome)
        if zoo_report is not None:
            result.params["zoo"] = zoo_report
        return result

    def train(
        self,
        request: TrainRequest,
        *,
        checkpoint_dir: str | Path | None = None,
    ) -> PlacementResult:
        """Execute one training campaign over the service backend.

        ``checkpoint_dir`` is a driver-side concern (server filesystem),
        so it is an argument here rather than a request field.
        """
        # Local import: the train layer sits above the runtime this
        # module shares a file with dependency-wise.
        from repro.train import run_campaign
        from repro.zoo import signature_meta

        self._check_circuit(request)
        campaign = run_campaign(
            self.registry[request.circuit],
            workers=request.workers,
            rounds=request.rounds,
            steps_per_round=request.steps,
            placer=request.placer,
            merge_how=request.merge_how,
            seed=request.seed,
            batch=request.batch,
            target=request.target,
            target_from_symmetric=request.target is None,
            target_scale=request.target_scale,
            stop_at_target=request.stop_at_target,
            warm_start=self._warm_tables(request.warm_policy),
            checkpoint_dir=checkpoint_dir,
            backend=self.backend,
        )
        block = self.registry.build(request.circuit)
        metrics = PlacementEvaluator(block).evaluate(campaign.best_placement)
        policy_ref = None
        if request.save_policy:
            policy_ref = self.policies.save(
                request.save_policy,
                campaign.master_tables,
                prune_min_visits=request.prune_min_visits,
                prune_min_abs_q=request.prune_min_abs_q,
                circuit=request.circuit,
                placer=request.placer,
                merge_how=request.merge_how,
                rounds_run=campaign.rounds_run,
                best_cost=campaign.best_cost,
                # The signature map that makes this snapshot visible to
                # the zoo index for cross-circuit warm starts.
                zoo=signature_meta(block, campaign.master_tables),
            )
        return PlacementResult.from_campaign(
            request, campaign, metrics=metrics, policy=policy_ref
        )

    def fig3(
        self,
        circuit: str,
        *,
        scale: float = 1.0,
        jobs: int | None = None,
        batch: int = 1,
    ):
        """Run the paper's Fig. 3 comparison for one configured circuit.

        Returns the full :class:`~repro.experiments.fig3.Fig3Result`,
        which thin CLI clients render.
        """
        from repro.experiments import ALL_CONFIGS, run_fig3

        if circuit not in ALL_CONFIGS:
            raise ValueError(
                f"no fig3 config for {circuit!r}; have {sorted(ALL_CONFIGS)}"
            )
        config = ALL_CONFIGS[circuit]
        if scale != 1.0:
            config = config.scaled(scale)
        if batch != 1:
            config = config.with_batch(batch)
        backend = self.backend if jobs is None else make_backend(jobs)
        return run_fig3(config, backend=backend)

    # ----------------------------------------------------------- rendering

    def block_for(self, result: PlacementResult, request: Any = None):
        """The :class:`AnalogBlock` behind a result.

        Registry-keyed results resolve by their circuit label; inline-
        SPICE results need the originating ``request`` (the deck is not
        in the result payload) — the HTTP layer passes the job record's
        request so served SPICE jobs can render too.
        """
        if request is not None and getattr(request, "spice", None):
            return request.deck().build()
        label = result.circuit
        if label in self.registry:
            return self.registry.build(label)
        raise ValueError(
            f"result circuit {label!r} is not in this service's registry "
            "(inline-SPICE results render via the original request)"
        )

    def render_svg(self, result: PlacementResult, request: Any = None,
                   **kwargs) -> str:
        """Render a result's best placement as an SVG document."""
        from repro.layout.svg import placement_to_svg

        block = self.block_for(result, request=request)
        return placement_to_svg(result.placement_object(), block.circuit,
                                **kwargs)

    # --------------------------------------------------------------- async

    def submit(self, request: Any, *, client: str | None = None) -> str:
        """Queue a request on the job manager; returns the job id.

        Unknown circuit keys are rejected here, synchronously — a typo
        should be a 400 at submit time, not a failed job later.  Policy
        references are *not* resolved until the job executes: a queued
        pipeline may submit ``train(save_policy="x")`` followed by
        ``place(warm_policy="x")`` before ``x@1`` exists.

        Args:
            client: optional client identity, counted against
                ``max_inflight_per_client``.

        Raises:
            RuntimeError: the service is draining (HTTP serves 503).
            QueueFullError: backpressure limits hit (HTTP serves 429).
        """
        if self.draining:
            raise RuntimeError(
                "service is draining; not accepting new jobs"
            )
        self._check_circuit(request)
        return self.jobs.submit(request, client=client)

    def status(self, job_id: str) -> JobRecord:
        return self.jobs.status(job_id)

    def result(self, job_id: str, timeout: float | None = None) -> PlacementResult:
        return self.jobs.result(job_id, timeout=timeout)

    def cancel(self, job_id: str) -> bool:
        return self.jobs.cancel(job_id)

    def begin_drain(self) -> None:
        """Stop accepting submissions; running/queued jobs keep going.

        The graceful-shutdown first half (SIGTERM handler): flip the
        flag, let in-flight work finish, then :meth:`close`.
        """
        self.draining = True

    def metrics(self) -> dict:
        """The scrape-target payload behind ``GET /metrics``.

        Job-manager throughput/latency metrics plus the execution
        backend's identity and live worker count (a
        :class:`~repro.runtime.cluster.ClusterBackend` reports its
        currently connected slots).
        """
        payload = self.jobs.metrics()
        payload["backend"] = {
            "kind": type(self.backend).__name__,
            "workers": getattr(
                self.backend, "worker_count", self.backend.jobs
            ),
        }
        return payload

    def close(self, wait: bool = True) -> None:
        """Shut the job manager down (running jobs finish when ``wait``),
        flush/close the journal, and close a closeable backend (a
        cluster coordinator shuts its workers down)."""
        self.draining = True
        if self._jobs is not None:
            self._jobs.shutdown(wait=wait)
        if self.journal is not None:
            self.journal.close()
        close_backend = getattr(self.backend, "close", None)
        if callable(close_backend):
            close_backend()

    def __enter__(self) -> "PlacementService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
