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

The contract every backend honours — and the reason serial and parallel
runs are result-identical — is **order preservation**: ``map(fn, items)``
returns results in *item order*, never completion order.  Work shipped
across the process boundary must be picklable, which is why callers send
lightweight specs (see :mod:`repro.runtime.spec`) instead of live
evaluators, environments, or closures.
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
    """A worker exception, annotated with the item that raised it.

    A mid-batch failure inside a process pool used to surface as an
    anonymous remote traceback; this wrapper names the originating item
    (its index, and — for :class:`~repro.runtime.spec.RunSpec`-shaped
    items — the circuit, placer and seed that died), so quarantine
    reports and logs identify the run without archaeology.  Subclasses
    :class:`RuntimeError` and keeps the original message, so existing
    ``except``/``match`` sites keep working.
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


class _IndexedCall:
    """Picklable adapter: ``(index, item)`` in, annotated exceptions out."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, pair):
        index, item = pair
        try:
            return self.fn(item)
        except WorkerTaskError:
            raise
        except Exception as exc:
            raise WorkerTaskError(
                f"{_item_label(item, index)}: {type(exc).__name__}: {exc}"
            ) from exc


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
    attempt is charged and :meth:`ProcessPoolBackend.map_attempts`
    re-runs it internally for free.
    """

    status: str
    value: Any = None
    error: str | None = None
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == ATTEMPT_OK


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
    """Anything that can map a function over independent work items.

    Implementations must return results **in item order** (never
    completion order), one per item, and must propagate worker
    exceptions to the caller.
    """

    #: Degree of parallelism the backend offers (1 = serial).  Callers
    #: may use it to size work partitions.
    jobs: int

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item; results aligned with ``items``."""
        ...


class SerialBackend:
    """In-process, in-order execution — the zero-dependency default."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend:
    """Fan work out over a pool of worker processes.

    Args:
        jobs: worker process count (defaults to the machine's CPU count).
        mp_start_method: multiprocessing start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``); ``None`` uses the platform
            default.

    The pool is created per :meth:`map` call, so the backend object
    itself holds no OS resources and is safe to keep on configs.
    ``fn`` and every item must be picklable — module-level functions and
    plain-data specs, not closures or live evaluators.
    """

    def __init__(self, jobs: int | None = None, mp_start_method: str | None = None):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.mp_start_method = mp_start_method

    def _executor(self, n_items: int) -> ProcessPoolExecutor:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = (
            multiprocessing.get_context(self.mp_start_method)
            if self.mp_start_method is not None
            else None
        )
        workers = max(1, min(self.jobs, n_items))
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        if not items:
            return []
        # Mild chunking amortises pickling without starving workers.
        chunksize = max(1, len(items) // (self.jobs * 4))
        with self._executor(len(items)) as executor:
            return list(executor.map(
                _IndexedCall(fn), enumerate(items), chunksize=chunksize
            ))

    def map_attempts(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout_s: float | None = None,
    ) -> tuple[list[AttemptResult], int]:
        """Fault-tolerant map: settle every item instead of raising.

        The resilient counterpart of :meth:`map` (and the seam
        :func:`~repro.runtime.resilience.resilient_map_runs` drives):

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
                        settled[i] = AttemptResult(
                            ATTEMPT_ERROR,
                            error=str(exc),
                            error_type=type(exc).__name__,
                        )
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
                            settled[i] = AttemptResult(
                                ATTEMPT_ERROR,
                                error=str(exc),
                                error_type=type(exc).__name__,
                            )
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

    Accepts everything :func:`resolve_backend` does, plus the
    ``--backend`` spec-string grammar, so the CLI, the service and the
    training campaign all name their backend the same way:

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
    ========================  ==========================================
    """
    if spec is None or isinstance(spec, int) or isinstance(
            spec, ExecutionBackend):
        return resolve_backend(spec)
    if not isinstance(spec, str):
        raise TypeError(
            f"expected str, int, None or ExecutionBackend, got {type(spec)!r}"
        )
    text = spec.strip()
    if text == "serial":
        return SerialBackend()
    if text.isdigit():
        return resolve_backend(int(text))
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


def resolve_backend(
    jobs: int | ExecutionBackend | None,
) -> ExecutionBackend:
    """Turn a ``--jobs`` value (or an explicit backend) into a backend.

    ``None``, ``0`` and ``1`` mean serial; ``N >= 2`` means a process
    pool with ``N`` workers.  An :class:`ExecutionBackend` instance is
    passed through untouched, so APIs can accept either form.
    """
    if jobs is None:
        return SerialBackend()
    if isinstance(jobs, int):
        if jobs < 0:
            raise ValueError(f"jobs cannot be negative, got {jobs}")
        if jobs <= 1:
            return SerialBackend()
        return ProcessPoolBackend(jobs=jobs)
    if isinstance(jobs, ExecutionBackend):
        return jobs
    raise TypeError(f"expected int, None or ExecutionBackend, got {type(jobs)!r}")
