"""Distributed execution: drain one queue of specs onto many machines.

:class:`ClusterBackend` is an :class:`~repro.runtime.backend.
ExecutionBackend` whose workers live in *other processes, possibly on
other machines*.  The object itself is the **coordinator**: it binds a
TCP listening socket, and worker daemons started with
``repro worker --connect host:port --jobs N`` dial in — one socket
connection per execution slot.  Work flows over length-prefixed JSON
frames (:mod:`repro.runtime.wire`), and the only work is placement: a
:class:`~repro.runtime.spec.RunSpec` for
:func:`~repro.runtime.spec.execute_run`, or a resilient attempt
envelope around one.  Nothing on the wire is unpickled, so a peer that
reaches the port can take or answer placement work but cannot run code
on the coordinator or a worker; a frame of the wrong shape from a peer
counts as that slot's death.  There is no shared token yet, so bind to
loopback (the default) unless every host that can reach the port is
trusted to take and answer work:

* the coordinator **leases** queued tasks to idle slots in small chunks
  (default 1).  Work stealing falls out of the short leases plus the
  shared queue: a fast worker that finishes simply becomes idle and is
  handed the next queued task, whoever it was "destined" for;
* each slot sends a **heartbeat** every ``heartbeat_s`` while it
  computes; a slot silent for ``heartbeat_timeout_s`` (or whose socket
  reaches EOF — the fast path when a process dies) is declared dead;
* a dead slot settles only the task it was *executing* as
  ``ATTEMPT_KILLED``; the rest of its lease re-enters the queue
  uncharged — exactly the ``lost``-attempt semantics
  :func:`~repro.runtime.resilience.resilient_map_runs` consumes, so
  retries, quarantine and ``FailedRun`` accounting work unchanged.

Determinism: results are keyed by task index and returned in item
order, and every payload crosses the wire through exact codecs, so a
cluster ``map_runs`` is bit-identical to serial — including under
injected worker kills (a ``"kill"`` fault really ``os._exit``\\ s the
slot; the daemon respawns it and the retry lands on a fresh process).

Two mapping modes mirror the process-pool backend:

* :meth:`map` — the plain contract: transparently re-issues tasks lost
  to worker deaths (bounded), raises :class:`WorkerTaskError` on the
  first item failure;
* :meth:`map_attempts` — the fault-aware contract: every item settles
  with an explicit :class:`AttemptResult` status instead of raising.

The worker side lives here too: :func:`run_worker` (one slot, one
connection) and :func:`worker_main` (the ``repro worker`` daemon body —
``--jobs N`` slots as child processes, respawned if a kill fault or
crash takes one out, so a single-worker cluster still survives retries).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Sequence

from repro.runtime.backend import (
    ATTEMPT_ERROR,
    ATTEMPT_KILLED,
    ATTEMPT_OK,
    ATTEMPT_TIMEOUT,
    AttemptResult,
    WorkerTaskError,
    _item_label,
)
from repro.runtime.faults import KILL_EXIT_CODE, mark_expendable_worker
from repro.runtime.wire import (
    FrameError,
    encode_task,
    execute_task,
    outcome_from_wire,
    recv_frame,
    send_frame,
)

#: Protocol frame types.
HELLO = "hello"
WORK = "work"
RESULT = "result"
HEARTBEAT = "heartbeat"
SHUTDOWN = "shutdown"

#: Default worker heartbeat cadence (seconds).
DEFAULT_HEARTBEAT_S = 1.0

#: Default silence after which a slot is declared dead.
DEFAULT_HEARTBEAT_TIMEOUT_S = 10.0

#: How long :meth:`ClusterBackend.map` waits for a first worker (and
#: for a replacement when every worker died mid-wave).
DEFAULT_START_TIMEOUT_S = 120.0

#: Times a ``map`` task lost to worker deaths is re-issued before it
#: settles as an error (``map_attempts`` charges the caller instead).
MAX_REISSUE = 3


class _Slot:
    """Coordinator-side state of one connected worker slot."""

    def __init__(self, sock: socket.socket, peer: str):
        self.sock = sock
        self.peer = peer
        self.name = peer          # refined by the hello frame
        self.pid: int | None = None
        self.alive = True
        self.registered = False
        self.last_seen = time.monotonic()
        self.leased: list[int] = []   # task ids, execution order
        self.stale: set[int] = set()  # timed-out ids still computing

    @property
    def idle(self) -> bool:
        return (self.registered and self.alive
                and not self.leased and not self.stale)


class _Wave:
    """State of one in-flight :meth:`map`/:meth:`map_attempts` call."""

    def __init__(self, tasks: list[dict], items: Sequence[Any],
                 charge_kills: bool):
        self.tasks = tasks
        self.items = items
        self.charge_kills = charge_kills
        self.pending: list[int] = list(range(len(tasks)))
        self.settled: dict[int, AttemptResult] = {}
        self.reissued: dict[int, int] = {}
        self.deaths = 0    # worker deaths + timeout teardowns

    @property
    def done(self) -> bool:
        return len(self.settled) == len(self.tasks)


class ClusterBackend:
    """Coordinator end of the socket execution backend.

    Constructing the backend binds the listening socket immediately, so
    ``address`` is known (``port=0`` picks a free port) and workers can
    begin connecting before the first :meth:`map` call.

    Args:
        host: interface to listen on (``0.0.0.0`` for off-box workers).
        port: listening port, ``0`` = ephemeral.
        lease_chunk: tasks granted per idle slot per lease (short
            leases keep re-issue cost low; 1 is the tight default).
        heartbeat_timeout_s: silence after which a slot is dead.
        start_timeout_s: how long a mapping call waits with zero
            connected workers before giving up.
        max_reissue: re-issue budget per task for :meth:`map`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_chunk: int = 1,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        start_timeout_s: float = DEFAULT_START_TIMEOUT_S,
        max_reissue: int = MAX_REISSUE,
    ):
        if lease_chunk < 1:
            raise ValueError(f"lease_chunk must be >= 1, got {lease_chunk}")
        self.lease_chunk = lease_chunk
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.start_timeout_s = start_timeout_s
        self.max_reissue = max_reissue
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._slots: list[_Slot] = []
        self._wave: _Wave | None = None
        self._map_lock = threading.Lock()  # one wave at a time
        self._closed = False
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._threads = [
            threading.Thread(
                target=self._accept_loop, daemon=True,
                name=f"cluster-accept:{self.port}",
            ),
            threading.Thread(
                target=self._monitor_loop, daemon=True,
                name=f"cluster-monitor:{self.port}",
            ),
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------ surface

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def spec(self) -> str:
        """The ``--backend`` string that names this coordinator."""
        return f"cluster:{self.host}:{self.port}"

    @property
    def jobs(self) -> int:
        """Degree of parallelism: currently connected slots (min 1,
        so partition-sizing callers never divide by zero)."""
        with self._lock:
            return max(1, sum(1 for s in self._slots if s.registered))

    @property
    def worker_count(self) -> int:
        """Connected slots right now (0 when none — unlike ``jobs``)."""
        with self._lock:
            return sum(1 for s in self._slots if s.registered)

    def workers(self) -> list[dict]:
        """Connected slots as plain dicts (the /metrics view)."""
        with self._lock:
            return [
                {"name": s.name, "pid": s.pid, "peer": s.peer,
                 "leased": len(s.leased)}
                for s in self._slots if s.registered
            ]

    def wait_for_workers(self, count: int,
                         timeout_s: float | None = None) -> int:
        """Block until ``count`` slots are connected (or timeout).

        Returns the connected-slot count at exit.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._cond:
            while True:
                have = sum(1 for s in self._slots if s.registered)
                if have >= count:
                    return have
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return have
                self._cond.wait(timeout=remaining)

    def close(self) -> None:
        """Stop the coordinator: shut workers down, close every socket."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            slots = list(self._slots)
            self._cond.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for slot in slots:
            try:
                send_frame(slot.sock, {"type": SHUTDOWN})
            except OSError:
                pass
            try:
                slot.sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ClusterBackend({self.host}:{self.port}, "
            f"workers={self.worker_count})"
        )

    # ------------------------------------------------------------ mapping

    def map(self, fn: Callable, items: Sequence[Any]) -> list:
        """Order-preserving map over the cluster.

        ``fn`` must be :func:`~repro.runtime.spec.execute_run` over
        specs or the resilience layer's attempt runner over envelopes;
        anything else raises ``TypeError`` before a frame is sent.
        Worker deaths are survived transparently: the dead slot's tasks
        are re-issued (each at most ``max_reissue`` times) so plain
        drivers — fig3, campaigns, ablations — never observe a death.
        The first item whose execution *fails* raises
        :class:`WorkerTaskError`, mirroring the pool backend.
        """
        items = list(items)
        if not items:
            return []
        tasks = [encode_task(fn, item) for item in items]
        settled, __ = self._run_wave(
            tasks, items, timeout_s=None, charge_kills=False
        )
        for i in range(len(items)):
            result = settled[i]
            if not result.ok:
                raise WorkerTaskError(
                    f"{_item_label(items[i], i)}: "
                    f"{result.error_type}: {result.error}"
                )
        return [settled[i].value for i in range(len(items))]

    def map_attempts(
        self,
        fn: Callable,
        items: Sequence[Any],
        timeout_s: float | None = None,
    ) -> tuple[list[AttemptResult], int]:
        """Fault-aware map: every item settles, nothing raises.

        Matches :meth:`ProcessPoolBackend.map_attempts` semantics:
        a worker death settles only the task the slot was executing as
        ``ATTEMPT_KILLED`` (queued lease remainder re-runs uncharged);
        at the ``timeout_s`` deadline in-flight tasks settle
        ``ATTEMPT_TIMEOUT`` (their late results are discarded) and the
        still-queued remainder redispatches against a fresh deadline.
        Returns ``(results in item order, death/teardown count)``.
        """
        items = list(items)
        if not items:
            return [], 0
        tasks = [encode_task(fn, item) for item in items]
        settled, deaths = self._run_wave(
            tasks, items, timeout_s=timeout_s, charge_kills=True
        )
        return [settled[i] for i in range(len(items))], deaths

    # ----------------------------------------------------- wave execution

    def _run_wave(
        self,
        tasks: list[dict],
        items: Sequence[Any],
        timeout_s: float | None,
        charge_kills: bool,
    ) -> tuple[dict[int, AttemptResult], int]:
        with self._map_lock:
            wave = _Wave(tasks, items, charge_kills)
            with self._cond:
                if self._closed:
                    raise RuntimeError("cluster backend is closed")
                self._wave = wave
                self._dispatch_locked()
                try:
                    self._wait_wave_locked(wave, timeout_s)
                finally:
                    self._wave = None
            return wave.settled, wave.deaths

    def _wait_wave_locked(self, wave: _Wave,
                          timeout_s: float | None) -> None:
        """Drive one wave to completion (lock held throughout waits)."""
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        workerless_since: float | None = None
        while not wave.done:
            if self._closed:
                raise RuntimeError("cluster backend closed mid-wave")
            # No-worker guard: an empty cluster must fail loudly, not
            # hang a training campaign forever.
            if any(s.registered for s in self._slots):
                workerless_since = None
            else:
                now = time.monotonic()
                if workerless_since is None:
                    workerless_since = now
                elif now - workerless_since > self.start_timeout_s:
                    raise RuntimeError(
                        f"no workers connected to {self.spec} within "
                        f"{self.start_timeout_s}s — start some with "
                        f"`repro worker --connect "
                        f"{self.host}:{self.port}`"
                    )
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._expire_inflight_locked(wave)
                    if wave.done:
                        return
                    # Still-queued tasks redispatch on a fresh budget,
                    # exactly like the pool's rebuild-and-rerun.
                    deadline = time.monotonic() + timeout_s
                    self._dispatch_locked()
                    continue
            wait_s = 0.25 if remaining is None else min(0.25, remaining)
            self._cond.wait(timeout=wait_s)

    def _expire_inflight_locked(self, wave: _Wave) -> None:
        """Deadline hit: charge executing tasks as timeouts, requeue
        the never-started lease remainder, void the leases."""
        wave.deaths += 1
        for slot in self._slots:
            if not slot.leased:
                continue
            executing, queued = slot.leased[0], slot.leased[1:]
            if executing not in wave.settled:
                wave.settled[executing] = AttemptResult(
                    ATTEMPT_TIMEOUT,
                    error=(
                        f"{_item_label(wave.items[executing], executing)}"
                        ": attempt exceeded the wave's time budget "
                        "(late result discarded)"
                    ),
                    error_type="TimeoutError",
                )
            for tid in queued:
                if tid not in wave.settled:
                    wave.pending.append(tid)
            # The slot cannot be preempted; it stays busy until the
            # stale result arrives and is discarded.
            slot.stale.add(executing)
            slot.leased = []

    def _dispatch_locked(self) -> None:
        """Pair queued tasks with idle slots (lock held)."""
        wave = self._wave
        if wave is None:
            return
        while wave.pending:
            slot = next((s for s in self._slots if s.idle), None)
            if slot is None:
                return
            grant = wave.pending[: self.lease_chunk]
            del wave.pending[: len(grant)]
            slot.leased.extend(grant)
            frame = {"type": WORK, "tasks": [
                {"id": tid, "task": wave.tasks[tid]} for tid in grant
            ]}
            try:
                send_frame(slot.sock, frame)
            except OSError:
                self._slot_died_locked(slot)

    def _slot_died_locked(self, slot: _Slot) -> None:
        """One slot is gone: charge its executing task, requeue the
        rest of its lease uncharged (the ``lost`` semantics)."""
        if not slot.alive:
            return
        slot.alive = False
        slot.registered = False
        try:
            slot.sock.close()
        except OSError:
            pass
        if slot in self._slots:
            self._slots.remove(slot)
        wave = self._wave
        leased, slot.leased = slot.leased, []
        slot.stale.clear()
        if wave is None or not leased:
            self._cond.notify_all()
            return
        wave.deaths += 1
        executing, queued = leased[0], leased[1:]
        if executing not in wave.settled:
            if wave.charge_kills:
                wave.settled[executing] = AttemptResult(
                    ATTEMPT_KILLED,
                    error=(
                        f"{_item_label(wave.items[executing], executing)}"
                        f": worker {slot.name} died mid-task"
                    ),
                    error_type="WorkerKilled",
                )
            else:
                count = wave.reissued.get(executing, 0) + 1
                wave.reissued[executing] = count
                if count > self.max_reissue:
                    wave.settled[executing] = AttemptResult(
                        ATTEMPT_ERROR,
                        error=(
                            f"task lost to {count} worker deaths "
                            f"(worker {slot.name} latest)"
                        ),
                        error_type="WorkerKilled",
                    )
                else:
                    wave.pending.append(executing)
        for tid in queued:
            if tid not in wave.settled:
                wave.pending.append(tid)
        self._dispatch_locked()
        self._cond.notify_all()

    # ------------------------------------------------------ socket threads

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            slot = _Slot(sock, peer=f"{addr[0]}:{addr[1]}")
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                self._slots.append(slot)
            threading.Thread(
                target=self._reader_loop, args=(slot,), daemon=True,
                name=f"cluster-reader:{slot.peer}",
            ).start()

    def _reader_loop(self, slot: _Slot) -> None:
        try:
            hello = recv_frame(slot.sock)
            if not isinstance(hello, dict) or hello.get("type") != HELLO:
                raise FrameError(f"expected hello, got {hello!r}")
            with self._cond:
                slot.name = str(hello.get("name") or slot.peer)
                slot.pid = hello.get("pid")
                slot.last_seen = time.monotonic()
                slot.registered = True
                self._dispatch_locked()
                self._cond.notify_all()
            while True:
                frame = recv_frame(slot.sock)
                if frame is None:
                    break
                if not isinstance(frame, dict):
                    raise FrameError(
                        f"expected a JSON object, got {type(frame).__name__}"
                    )
                kind = frame.get("type")
                if kind == HEARTBEAT:
                    with self._lock:
                        slot.last_seen = time.monotonic()
                elif kind == RESULT:
                    self._on_result(slot, frame)
                # Unknown frame types are ignored (forward compat).
        except (OSError, FrameError):
            pass
        with self._cond:
            self._slot_died_locked(slot)

    def _on_result(self, slot: _Slot, frame: dict) -> None:
        # A peer's frame is untrusted: a field of the wrong type raises
        # FrameError, which the reader turns into this slot's death.
        tid = frame.get("id")
        if not isinstance(tid, int) or isinstance(tid, bool):
            raise FrameError(f"result id must be an integer, got {tid!r}")
        for name in ("status", "error", "error_type"):
            if not isinstance(frame.get(name, ""), str):
                raise FrameError(f"result field {name!r} must be a string")
        with self._cond:
            slot.last_seen = time.monotonic()
            if tid in slot.stale:
                # A timed-out task finally finished; its settlement
                # already happened — discard, the slot is usable again.
                slot.stale.discard(tid)
                self._dispatch_locked()
                self._cond.notify_all()
                return
            if tid in slot.leased:
                slot.leased.remove(tid)
            wave = self._wave
            if wave is None or tid in wave.settled:
                self._dispatch_locked()
                return
            if not 0 <= tid < len(wave.tasks):
                raise FrameError(f"result id {tid} names no task")
            if frame.get("status") == "ok":
                # Every task is a spec or an attempt, and both yield a
                # RunOutcome: decode as that, whatever the peer names.
                try:
                    value = outcome_from_wire(frame.get("value"))
                except Exception as exc:  # noqa: BLE001 — settle, not raise
                    wave.settled[tid] = AttemptResult(
                        ATTEMPT_ERROR,
                        error=f"undecodable result: {exc}",
                        error_type=type(exc).__name__,
                    )
                else:
                    wave.settled[tid] = AttemptResult(
                        ATTEMPT_OK, value=value
                    )
            else:
                wave.settled[tid] = AttemptResult(
                    ATTEMPT_ERROR,
                    error=frame.get("error") or "worker error",
                    error_type=frame.get("error_type") or "RuntimeError",
                )
            self._dispatch_locked()
            self._cond.notify_all()

    def _monitor_loop(self) -> None:
        interval = max(0.2, self.heartbeat_timeout_s / 4.0)
        while True:
            time.sleep(interval)
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                silent = [
                    s for s in self._slots
                    if s.registered
                    and now - s.last_seen > self.heartbeat_timeout_s
                ]
            for slot in silent:
                # Closing the socket wakes the reader thread, which
                # performs the (idempotent) death accounting.
                try:
                    slot.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    slot.sock.close()
                except OSError:
                    pass


# ----------------------------------------------------------- worker side


def _connect_with_retry(
    host: str, port: int, timeout_s: float
) -> socket.socket | None:
    """Dial the coordinator, retrying briefly (it may still be booting)."""
    deadline = time.monotonic() + timeout_s
    delay = 0.05
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(delay)
            delay = min(1.0, delay * 2)


def run_worker(
    host: str,
    port: int,
    *,
    name: str | None = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    connect_timeout_s: float = 30.0,
) -> int:
    """One worker slot: connect, lease, execute, stream results.

    Runs until the coordinator says ``shutdown`` or the connection
    drops.  Returns a process exit status (0 = clean; a ``"kill"``
    fault never returns — it ``os._exit``\\ s with
    :data:`~repro.runtime.faults.KILL_EXIT_CODE`).
    """
    sock = _connect_with_retry(host, port, connect_timeout_s)
    if sock is None:
        return 1
    send_lock = threading.Lock()
    stop = threading.Event()

    def _heartbeats() -> None:
        while not stop.wait(heartbeat_s):
            try:
                with send_lock:
                    send_frame(sock, {"type": HEARTBEAT})
            except OSError:
                return

    label = name or f"{socket.gethostname()}:{os.getpid()}"
    try:
        send_frame(sock, {"type": HELLO, "name": label, "pid": os.getpid()})
        threading.Thread(
            target=_heartbeats, daemon=True, name=f"heartbeat:{label}"
        ).start()
        while True:
            try:
                frame = recv_frame(sock)
            except (OSError, FrameError):
                return 0
            if frame is None or frame.get("type") == SHUTDOWN:
                return 0
            if frame.get("type") != WORK:
                continue
            for entry in frame.get("tasks", []):
                # execute_task settles failures into the result frame;
                # only a real process death breaks the loop.
                result = execute_task(entry["task"])
                try:
                    with send_lock:
                        send_frame(
                            sock, {"type": RESULT, "id": entry["id"],
                                   **result},
                        )
                except OSError:
                    return 0
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


def _slot_main(host: str, port: int, name: str,
               heartbeat_s: float) -> None:
    """Child-process body of one daemon slot (picklable by reference)."""
    mark_expendable_worker()
    raise SystemExit(
        run_worker(host, port, name=name, heartbeat_s=heartbeat_s)
    )


def worker_main(
    host: str,
    port: int,
    jobs: int = 1,
    *,
    name: str | None = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> int:
    """The ``repro worker`` daemon: ``jobs`` slots, respawned on death.

    Each slot is a child process with its own coordinator connection.
    A slot that dies *unexpectedly* (an injected kill fault, an OOM, a
    crash — any nonzero exit) is respawned so the daemon keeps serving
    retries; a slot that exits cleanly (coordinator shutdown or EOF) is
    not, and the daemon returns once every slot is done.
    """
    import multiprocessing

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    base = name or f"{socket.gethostname()}:{os.getpid()}"

    def _spawn(index: int) -> multiprocessing.Process:
        process = multiprocessing.Process(
            target=_slot_main,
            args=(host, port, f"{base}/slot{index}", heartbeat_s),
            daemon=False,
        )
        process.start()
        return process

    slots = {index: _spawn(index) for index in range(jobs)}
    try:
        while slots:
            time.sleep(0.05)
            for index, process in list(slots.items()):
                if process.is_alive():
                    continue
                if process.exitcode not in (0, None):
                    # Killed mid-task (exit 113 for injected faults) —
                    # bring a fresh slot up for the retry.
                    slots[index] = _spawn(index)
                else:
                    del slots[index]
    except KeyboardInterrupt:
        for process in slots.values():
            process.terminate()
        return 130
    return 0


__all__ = [
    "ClusterBackend",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
    "KILL_EXIT_CODE",
    "run_worker",
    "worker_main",
]
