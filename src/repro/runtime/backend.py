"""Execution backends: where independent work items actually run.

Every experiment driver in the repo fans out *independent* pieces of work
— one optimizer run per seed, one run per island and training round, one
scaling instance per circuit size.  A backend is the single seam through
which that fan-out happens:

* :class:`SerialBackend` executes in-process, in order — exactly the
  behavior of the original hand-rolled loops, with zero dependencies;
* :class:`ProcessPoolBackend` executes on a :class:`concurrent.futures.
  ProcessPoolExecutor`, one OS process per job (the ``--jobs N`` CLI
  flag).

Every backend has one mapping method, ``map_attempts(fn, items,
timeout_s=None)``: it settles each item as an :class:`AttemptResult`
(ok, error, killed or timed out) and never raises for an item, and it
returns the results in *item order*, never completion order — the
reason serial and parallel runs are result-identical.
:func:`~repro.runtime.spec.map_runs` and
:func:`~repro.runtime.resilience.resilient_map_runs` both read those
settlements.  Work shipped across the process boundary must be
picklable, which is why callers send lightweight specs (see
:mod:`repro.runtime.spec`) instead of live evaluators, environments, or
closures.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

if TYPE_CHECKING:
    # ``concurrent.futures`` and the process pool (``multiprocessing``
    # under it) load when a pool backend first runs, not with every
    # serial run.
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")
R = TypeVar("R")


class WorkerTaskError(RuntimeError):
    """A run that failed, annotated with the item that raised it.

    :func:`~repro.runtime.spec.map_runs` raises it, on every backend,
    for the first spec that did not settle ok: the message names the
    item (its index, and — for :class:`~repro.runtime.spec.RunSpec`
    items — the circuit, placer and seed that died) and carries the
    original exception's type and message, so logs identify the run
    without archaeology.
    """


class WorkerKilled(RuntimeError):
    """A ``"kill"`` fault fired where the process must survive.

    Raised instead of ``os._exit`` when the fault executes in the
    driver process (serial backend), so in-process runs observe the
    same one-killed-attempt the pool observes as a worker death.
    """


def _item_label(item: Any, index: int) -> str:
    """Human-readable identity of a mapped work item."""
    describe = getattr(item, "describe", None)
    if callable(describe):
        try:
            return f"item {index} ({describe()})"
        except Exception:  # noqa: BLE001 — labels must never mask errors
            pass
    key = getattr(item, "key", None)
    if key is not None:
        return f"item {index} (key={key!r})"
    return f"item {index}"


# ------------------------------------------------------- attempt results

#: Statuses a single execution attempt can settle with.
ATTEMPT_OK = "ok"            # fn returned a value
ATTEMPT_ERROR = "error"      # fn raised an ordinary exception
ATTEMPT_KILLED = "killed"    # the worker process died mid-task
ATTEMPT_TIMEOUT = "timeout"  # the attempt outlived its time budget


@dataclass
class AttemptResult:
    """How one execution attempt of one item settled.

    Every status is final.  An item queued behind a worker that died (or
    a pool that was torn down) never ran, so it settles nothing: no
    attempt is charged and the backend re-runs it internally for free.
    """

    status: str
    value: Any = None
    error: str | None = None
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == ATTEMPT_OK


def _raised(exc: BaseException) -> AttemptResult:
    """The settlement of an item whose call raised ``exc``."""
    return AttemptResult(
        ATTEMPT_ERROR, error=str(exc), error_type=type(exc).__name__
    )


def _marked_call(fn, item, index, started):
    """Worker-side wrapper: record "I started item i" before running it.

    The marker (a Manager dict, visible to the driver even after this
    process dies) is what attributes a ``BrokenProcessPool`` to the item
    the dead worker was actually executing — items whose marker is
    absent were still queued and are re-run without being charged an
    attempt.
    """
    started[index] = True
    return fn(item)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can settle a function over independent work items.

    ``map_attempts`` returns one :class:`AttemptResult` per item **in
    item order** (never completion order) plus a count of workers lost
    or torn down on the way, and settles an item's failure instead of
    raising it.
    """

    #: Degree of parallelism the backend offers (1 = serial).  Callers
    #: may use it to size work partitions.
    jobs: int

    def map_attempts(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout_s: float | None = None,
    ) -> tuple[list[AttemptResult], int]:
        """Apply ``fn`` to every item; settlements aligned with ``items``."""
        ...


class SerialBackend:
    """In-process, in-order execution — the zero-dependency default."""

    jobs = 1

    def map_attempts(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout_s: float | None = None,
    ) -> tuple[list[AttemptResult], int]:
        """Call ``fn(item)`` for each item in turn and settle it.

        In-process execution cannot be preempted, so an attempt that
        outlives ``timeout_s`` runs to completion and its late result
        settles as a timeout — the accounting the pool reports when it
        kills the worker instead.  A :class:`WorkerKilled` raised by a
        ``"kill"`` fault settles as a killed attempt.
        """
        results = []
        for item in items:
            start = time.monotonic()
            try:
                value = fn(item)
            except WorkerKilled as exc:
                results.append(AttemptResult(
                    ATTEMPT_KILLED, error=str(exc), error_type="WorkerKilled"
                ))
                continue
            except Exception as exc:  # noqa: BLE001 — settled, not raised
                results.append(_raised(exc))
                continue
            elapsed = time.monotonic() - start
            if timeout_s is not None and elapsed > timeout_s:
                results.append(AttemptResult(
                    ATTEMPT_TIMEOUT,
                    error=(
                        f"attempt exceeded {timeout_s}s time budget "
                        f"(ran {elapsed:.3f}s; late result discarded)"
                    ),
                    error_type="TimeoutError",
                ))
            else:
                results.append(AttemptResult(ATTEMPT_OK, value=value))
        return results, 0

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend:
    """Fan work out over a pool of worker processes.

    Args:
        jobs: worker process count (defaults to the machine's CPU count).

    The pool is created per :meth:`map_attempts` call, so the backend
    object itself holds no OS resources and is safe to keep on configs.
    ``fn`` and every item must be picklable — module-level functions and
    plain-data specs, not closures or live evaluators.
    """

    def __init__(self, jobs: int | None = None):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def _executor(self, n_items: int) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=min(self.jobs, n_items))

    def map_attempts(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout_s: float | None = None,
    ) -> tuple[list[AttemptResult], int]:
        """Settle every item on the pool instead of raising.

        * an item whose worker raises settles ``ATTEMPT_ERROR``;
        * a worker *death* (``BrokenProcessPool``) settles only the
          item(s) that worker was executing as ``ATTEMPT_KILLED`` — the
          pool is rebuilt and every still-queued item re-runs in it,
          uncharged, so one dead worker never poisons the batch;
        * when ``timeout_s`` elapses (measured from each wave's
          dispatch) the pool is torn down and in-flight items settle
          ``ATTEMPT_TIMEOUT``; queued items re-run fresh.

        Returns ``(results aligned with items, pool rebuild count)``.
        Items lost to another item's worker death (never executed) get
        no result of their own — they are re-run internally until they
        settle for a real reason.
        """
        import multiprocessing
        from concurrent.futures import TimeoutError as FutureTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        items = list(items)
        if not items:
            return [], 0
        settled: dict[int, AttemptResult] = {}
        pending = list(range(len(items)))
        rebuilds = 0
        with multiprocessing.Manager() as manager:
            while pending:
                started = manager.dict()
                executor = self._executor(len(pending))
                dispatched_at = time.monotonic()
                futures = {
                    i: executor.submit(_marked_call, fn, items[i], i, started)
                    for i in pending
                }
                deadline = (
                    None if timeout_s is None else dispatched_at + timeout_s
                )
                broke = timed_out = False
                for i in pending:
                    try:
                        remaining = (
                            None if deadline is None
                            else max(0.0, deadline - time.monotonic())
                        )
                        value = futures[i].result(timeout=remaining)
                        settled[i] = AttemptResult(ATTEMPT_OK, value=value)
                    except FutureTimeoutError:
                        timed_out = True
                        break
                    except BrokenProcessPool:
                        broke = True
                        break
                    except Exception as exc:  # noqa: BLE001 — settled, not raised
                        settled[i] = _raised(exc)
                if broke or timed_out:
                    # Kill the pool: on timeout the stuck workers must
                    # die for the batch to make progress; on a break
                    # the executor is already unusable.
                    for process in list(
                        getattr(executor, "_processes", {}).values()
                    ):
                        process.kill()
                    executor.shutdown(wait=True, cancel_futures=True)
                    rebuilds += 1
                    interrupted = (
                        ATTEMPT_TIMEOUT if timed_out else ATTEMPT_KILLED
                    )
                    for i in pending:
                        if i in settled:
                            continue
                        future = futures[i]
                        if future.cancelled():
                            continue  # never ran — re-run uncharged
                        exc = future.exception()
                        if exc is None:
                            settled[i] = AttemptResult(
                                ATTEMPT_OK, value=future.result()
                            )
                        elif isinstance(exc, BrokenProcessPool):
                            if started.get(i):
                                settled[i] = AttemptResult(
                                    interrupted,
                                    error=(
                                        f"{_item_label(items[i], i)}: "
                                        + (
                                            "attempt exceeded "
                                            f"{timeout_s}s time budget"
                                            if timed_out else
                                            "worker process died mid-task"
                                        )
                                    ),
                                    error_type=(
                                        "TimeoutError" if timed_out
                                        else "WorkerKilled"
                                    ),
                                )
                            # else: queued collateral — re-run uncharged.
                        else:
                            settled[i] = _raised(exc)
                else:
                    executor.shutdown(wait=True)
                pending = [i for i in pending if i not in settled]
        return [settled[i] for i in range(len(items))], rebuilds

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(jobs={self.jobs})"


def make_backend(
    spec: str | int | ExecutionBackend | None,
) -> ExecutionBackend:
    """The one backend factory every entrypoint shares.

    The CLI, the service, the training campaign and the experiment
    drivers all name their backend the same way:

    ========================  ==========================================
    spec                      backend
    ========================  ==========================================
    ``None`` / ``"serial"``   :class:`SerialBackend` (the default)
    ``N`` / ``"N"``           serial for ``N <= 1``, else a pool of N
    ``"pool"``                :class:`ProcessPoolBackend` (CPU count)
    ``"pool:N"``              :class:`ProcessPoolBackend` with N workers
    ``"cluster:HOST:PORT"``   a listening :class:`~repro.runtime.
                              cluster.ClusterBackend` coordinator
                              (``repro worker --connect HOST:PORT``
                              daemons supply the parallelism)
    an ExecutionBackend       passed through untouched
    ========================  ==========================================
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, int):
        if spec < 0:
            raise ValueError(f"jobs cannot be negative, got {spec}")
        return SerialBackend() if spec <= 1 else ProcessPoolBackend(jobs=spec)
    if isinstance(spec, ExecutionBackend):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"expected str, int, None or ExecutionBackend, got {type(spec)!r}"
        )
    text = spec.strip()
    if text == "serial":
        return SerialBackend()
    if text.isdigit():
        return make_backend(int(text))
    if text == "pool":
        return ProcessPoolBackend()
    if text.startswith("pool:"):
        count = text.partition(":")[2]
        if not count.isdigit() or int(count) < 1:
            raise ValueError(
                f"bad pool spec {spec!r}: expected pool:N with N >= 1"
            )
        return ProcessPoolBackend(jobs=int(count))
    if text.startswith("cluster:"):
        from repro.runtime.cluster import ClusterBackend

        rest = text.partition(":")[2]
        host, sep, port = rest.rpartition(":")
        if not sep:
            host, port = "127.0.0.1", rest
        if not port.isdigit():
            raise ValueError(
                f"bad cluster spec {spec!r}: expected "
                "cluster:HOST:PORT (PORT may be 0 for ephemeral)"
            )
        return ClusterBackend(host or "127.0.0.1", int(port))
    raise ValueError(
        f"unknown backend spec {spec!r}: expected 'serial', a job "
        "count, 'pool[:N]', or 'cluster:HOST:PORT'"
    )
