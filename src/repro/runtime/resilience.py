"""Resilient execution: retries, timeouts, quarantine — deterministically.

:func:`~repro.runtime.spec.map_runs` re-runs a spec whose worker died
and raises for any other failure; this module is the fault-tolerant
driver built on the same specs and backends.  :func:`resilient_map_runs`
executes every spec under a :class:`RetryPolicy`: a failed attempt
(worker exception, worker *death*, or time-budget overrun) is retried
with exponential backoff, and a spec that exhausts its attempts is
**quarantined** into a structured :class:`FailedRun` in its slot instead
of raising — the batch always comes back, one entry per spec, in spec
order.  Both drivers read the same settlements: every backend's
``map_attempts`` (see :mod:`repro.runtime.backend`).

Determinism is preserved where it matters and bounded where it cannot
be:

* surviving runs are bit-identical to a fault-free :func:`map_runs` of
  the same specs — :func:`~repro.runtime.spec.execute_run` rebuilds
  everything from the spec, so *when* or *where* a retry happens can
  never leak into its result;
* backoff jitter derives from ``(spec.seed, retry number)``, never from
  wall clock or a global RNG, so the same
  :class:`~repro.runtime.faults.FaultPlan` produces the same delays;
* retry/quarantine *accounting* is exact for in-band failures
  (exceptions, timeouts) at any parallelism, and for worker deaths on a
  single-worker pool; on a many-worker pool a death can interrupt
  whichever neighbours were mid-flight, so their attempt counts — but
  never their results — may vary.

Worker death never poisons the batch: only the specs the dead worker
was executing are charged an attempt and re-run; completed results are
kept and still-queued specs re-run uncharged.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.runtime.backend import (
    ATTEMPT_KILLED,
    ATTEMPT_TIMEOUT,
    ExecutionBackend,
    SerialBackend,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.spec import RunOutcome, RunSpec, execute_run


@dataclass(frozen=True)
class RetryPolicy:
    """When and how failed run attempts are retried.

    Attributes:
        max_attempts: total executions a spec may consume (1 = never
            retry); after the last failure the spec is quarantined into
            a :class:`FailedRun`.
        timeout_s: per-attempt time budget, or ``None`` for unlimited.
            On a process pool the budget is enforced by tearing the
            stuck workers down (the batch keeps moving); in-process
            backends cannot be preempted, so there the attempt runs to
            completion and a late result is *discarded* as a timeout —
            the accounting both backends report is the same.
        backoff_base_s: delay before the first retry.
        backoff_factor: multiplier per further retry.
        backoff_max_s: cap on the deterministic part of the delay.
        jitter_frac: multiplicative jitter span — the delay is scaled
            by ``1 + jitter_frac * u`` with ``u`` drawn from an RNG
            seeded by ``(spec seed, retry number)``, so jitter is
            deterministic per spec and never synchronised across specs.
    """

    max_attempts: int = 3
    timeout_s: float | None = None
    backoff_base_s: float = 0.02
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter_frac < 0:
            raise ValueError(
                f"jitter_frac must be >= 0, got {self.jitter_frac}"
            )

    def backoff_s(self, retries_so_far: int, seed: int = 0) -> float:
        """Delay before the next attempt, after ``retries_so_far`` >= 1.

        Deterministic in ``(retries_so_far, seed)``: exponential in the
        retry number, jittered by a spec-seed-derived RNG — no wall
        clock, no global randomness, so a replayed fault scenario backs
        off identically.
        """
        if retries_so_far < 1:
            return 0.0
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (retries_so_far - 1),
        )
        if self.jitter_frac == 0 or base == 0:
            return base
        rng = random.Random(1_000_003 * int(seed) + retries_so_far)
        return base * (1.0 + self.jitter_frac * rng.random())


@dataclass
class FailedRun:
    """A spec that exhausted its retry budget, as structured data.

    Occupies the spec's slot in the outcome list (aligned, like a
    :class:`~repro.runtime.spec.RunOutcome`) so drivers can account for
    every spec without exception plumbing.

    Attributes:
        key: the spec's merge key.
        error: message of the final attempt's failure.
        error_type: exception class name (or ``"WorkerKilled"`` /
            ``"TimeoutError"`` for out-of-band deaths).
        attempts: executions consumed.
        spec_label: human-readable identity of the run that died
            (circuit, placer, seed — see :meth:`RunSpec.describe`).
    """

    key: Hashable
    error: str
    error_type: str
    attempts: int
    spec_label: str

    def summary(self) -> str:
        return (
            f"quarantined after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.error} [{self.spec_label}]"
        )


@dataclass
class RunReport:
    """Everything one :func:`resilient_map_runs` call did.

    Attributes:
        outcomes: one :class:`RunOutcome` *or* :class:`FailedRun` per
            spec, in spec order.
        attempts: spec key → executions consumed (1 = clean first try).
        retries: re-executions charged across the whole batch.
        worker_deaths: attempts that ended with a dead worker process.
        timeouts: attempts that outlived the policy's time budget.
        pool_rebuilds: process pools torn down and rebuilt.
    """

    outcomes: list
    attempts: dict = field(default_factory=dict)
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0

    @property
    def quarantined(self) -> tuple:
        """Keys of the specs that failed for good, in spec order."""
        return tuple(
            o.key for o in self.outcomes if isinstance(o, FailedRun)
        )

    def ok(self) -> list[RunOutcome]:
        """The surviving outcomes, in spec order."""
        return [o for o in self.outcomes if isinstance(o, RunOutcome)]

    def failed(self) -> list[FailedRun]:
        """The quarantined runs, in spec order."""
        return [o for o in self.outcomes if isinstance(o, FailedRun)]

    def accounting(self) -> dict:
        """JSON-plain retry/quarantine ledger (the determinism probe:
        same specs + same fault plan → equal ``accounting()``)."""
        return {
            "attempts": [
                [repr(key), count] for key, count in self.attempts.items()
            ],
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
            "quarantined": [repr(key) for key in self.quarantined],
        }


@dataclass(frozen=True)
class AttemptEnvelope:
    """One scheduled execution of one spec, as shipped to a worker.

    Carries everything the worker-side entry point needs: the spec, the
    1-based attempt number (fault plans and backoff address it), the
    pre-computed deterministic backoff to sleep before running, the
    fault plan itself, and the driver's pid so a ``"kill"`` fault knows
    whether this process is expendable.
    """

    spec: RunSpec
    attempt: int = 1
    backoff_s: float = 0.0
    faults: FaultPlan | None = None
    origin_pid: int = 0

    @property
    def key(self) -> Hashable:
        return self.spec.key

    def describe(self) -> str:
        return f"attempt {self.attempt} of {self.spec.describe()}"


def _execute_attempt(envelope: AttemptEnvelope) -> RunOutcome:
    """Worker entry point for one resilient attempt (picklable)."""
    if envelope.backoff_s > 0:
        time.sleep(envelope.backoff_s)
    if envelope.faults is not None:
        envelope.faults.apply(
            envelope.spec.key,
            envelope.attempt,
            in_worker_process=os.getpid() != envelope.origin_pid,
        )
    return execute_run(envelope.spec)


def resilient_map_runs(
    specs: Sequence[RunSpec],
    backend: ExecutionBackend | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
) -> RunReport:
    """Execute specs with retries, timeouts and quarantine.

    The fault-tolerant sibling of :func:`~repro.runtime.spec.map_runs`:
    never raises for a failing spec — after ``retry.max_attempts``
    failures the spec settles as a :class:`FailedRun` in its slot, and
    every surviving :class:`RunOutcome` is bit-identical to what a
    fault-free run would have produced.

    Args:
        specs: the runs; keys must be unique (retry accounting and
            fault plans address specs by key).
        backend: execution backend (default serial).
        retry: the policy (default :class:`RetryPolicy()`).
        faults: optional :class:`FaultPlan` injected at the worker seam
            — production callers pass ``None``; the chaos suite and the
            fault benchmark pass scripted plans.
    """
    backend = backend if backend is not None else SerialBackend()
    retry = retry if retry is not None else RetryPolicy()
    specs = list(specs)
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        raise ValueError(
            "resilient_map_runs needs unique spec keys (they address "
            "retries and fault plans)"
        )
    outcomes: list = [None] * len(specs)
    attempts = {key: 0 for key in keys}
    retries = worker_deaths = timeouts = rebuilds = 0
    origin_pid = os.getpid()
    pending = list(range(len(specs)))
    while pending:
        envelopes = []
        for i in pending:
            spec = specs[i]
            n = attempts[spec.key] + 1
            envelopes.append(AttemptEnvelope(
                spec=spec,
                attempt=n,
                backoff_s=retry.backoff_s(n - 1, seed=spec.seed),
                faults=faults,
                origin_pid=origin_pid,
            ))
        wave, wave_rebuilds = backend.map_attempts(
            _execute_attempt, envelopes, timeout_s=retry.timeout_s
        )
        rebuilds += wave_rebuilds
        next_pending = []
        for i, attempt in zip(pending, wave):
            spec = specs[i]
            attempts[spec.key] += 1
            if attempt.ok:
                outcome = attempt.value
                if outcome.key != spec.key:
                    raise RuntimeError(
                        f"backend broke ordering: expected key "
                        f"{spec.key!r}, got {outcome.key!r}"
                    )
                outcomes[i] = outcome
                continue
            if attempt.status == ATTEMPT_KILLED:
                worker_deaths += 1
            elif attempt.status == ATTEMPT_TIMEOUT:
                timeouts += 1
            if attempts[spec.key] >= retry.max_attempts:
                outcomes[i] = FailedRun(
                    key=spec.key,
                    error=attempt.error or attempt.status,
                    error_type=attempt.error_type or attempt.status,
                    attempts=attempts[spec.key],
                    spec_label=spec.describe(),
                )
            else:
                retries += 1
                next_pending.append(i)
        pending = next_pending
    return RunReport(
        outcomes=outcomes,
        attempts=attempts,
        retries=retries,
        worker_deaths=worker_deaths,
        timeouts=timeouts,
        pool_rebuilds=rebuilds,
    )
