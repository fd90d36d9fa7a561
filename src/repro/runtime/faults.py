"""Deterministic fault injection for the execution runtime.

Fault tolerance is only trustworthy if it can be *proven*, and proving
it needs failures that happen on demand, at an exact point, every time.
A :class:`FaultPlan` is that switchboard: a plain, picklable table of
``(spec key, attempt) -> Fault`` entries injected at the one seam every
run already passes through (:func:`repro.runtime.resilience.
_execute_attempt`, just before :func:`~repro.runtime.spec.execute_run`).
Because the plan is addressed by the spec's merge key and the 1-based
attempt number — never by wall clock, pid or scheduling — the same plan
plus the same specs reproduces the same failure sequence, which is what
lets ``tests/faults/`` assert exact retry and quarantine accounting.

Three fault actions cover the failure modes the resilience layer must
survive:

* ``"raise"`` — the run raises :class:`InjectedFault` (an ordinary
  worker exception: bad numerics, a bug, a poison request);
* ``"delay"`` — the run sleeps ``delay_s`` first (a hung solver or
  overloaded worker; pair with ``RetryPolicy.timeout_s``);
* ``"kill"``  — the worker *process* dies mid-task (``os._exit``), the
  way an OOM-kill or segfault takes out a pool worker.  In-process
  backends cannot survive a real exit, so when the fault fires in the
  driver process it degrades to raising :class:`WorkerKilled` — one
  attempt is charged either way, keeping serial and pool accounting
  identical.

The journal analogue lives here too: :class:`JournalFault` crashes a
:class:`~repro.service.journal.JobJournal` append mid-write, leaving the
torn final line a kill -9 would.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.runtime.backend import WorkerKilled

#: Recognised fault actions.
KILL = "kill"
RAISE = "raise"
DELAY = "delay"
FAULT_ACTIONS = (KILL, RAISE, DELAY)

#: Exit status an injected ``"kill"`` uses — distinctive in core dumps
#: and process tables, and never a status real worker code exits with.
KILL_EXIT_CODE = 113


class InjectedFault(RuntimeError):
    """The exception a ``"raise"`` fault throws inside the run."""


#: Process-level expendability override.  Attempt envelopes decide
#: kill-fault behavior by comparing pids with the driver — which is
#: only sound on one machine.  A cluster worker slot marks itself
#: expendable explicitly, so a ``"kill"`` fault exits it for real even
#: if its pid happens to collide with the (remote) driver's.
_EXPENDABLE_WORKER = False


def mark_expendable_worker(expendable: bool = True) -> None:
    """Declare this process a disposable worker (cluster slots do)."""
    global _EXPENDABLE_WORKER
    _EXPENDABLE_WORKER = expendable


@dataclass(frozen=True)
class Fault:
    """One injected failure.

    Attributes:
        action: ``"kill"``, ``"raise"`` or ``"delay"``.
        delay_s: sleep before the run proceeds (``"delay"`` only).
        message: carried into the raised exception text.
    """

    action: str
    delay_s: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"action must be one of {FAULT_ACTIONS}, got {self.action!r}"
            )
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.action == DELAY and self.delay_s == 0:
            raise ValueError("a delay fault needs delay_s > 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures, keyed by
    ``(spec key, attempt)``.

    Plans are plain frozen data — hashable, picklable, shipped to
    workers inside each attempt envelope — so the *whole* failure
    scenario crosses the process boundary with the work itself.

    Attributes:
        faults: ``((key, attempt, fault), ...)`` entries; ``attempt``
            is 1-based (``1`` = the first execution).
    """

    faults: tuple[tuple[Hashable, int, Fault], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for key, attempt, fault in self.faults:
            if attempt < 1:
                raise ValueError(f"attempt is 1-based, got {attempt}")
            if not isinstance(fault, Fault):
                raise TypeError(f"expected Fault, got {type(fault)!r}")
            if (key, attempt) in seen:
                raise ValueError(
                    f"duplicate fault for key={key!r} attempt={attempt}"
                )
            seen.add((key, attempt))

    @classmethod
    def build(
        cls, plan: Mapping[tuple[Hashable, int], "Fault | str"]
    ) -> "FaultPlan":
        """Build a plan from ``{(key, attempt): fault-or-action}``.

        A bare action string (``"kill"``/``"raise"``) stands for the
        fault with default parameters.
        """
        entries = []
        for (key, attempt), fault in sorted(
            plan.items(), key=lambda item: (repr(item[0][0]), item[0][1])
        ):
            if isinstance(fault, str):
                fault = Fault(action=fault)
            entries.append((key, int(attempt), fault))
        return cls(faults=tuple(entries))

    def fault_for(self, key: Hashable, attempt: int) -> Fault | None:
        """The fault scheduled for this key's ``attempt``-th execution."""
        for fault_key, fault_attempt, fault in self.faults:
            if fault_key == key and fault_attempt == attempt:
                return fault
        return None

    def apply(self, key: Hashable, attempt: int, *,
              in_worker_process: bool) -> None:
        """Fire the scheduled fault, if any (runs inside the worker).

        Args:
            key: the executing spec's merge key.
            attempt: 1-based attempt number.
            in_worker_process: whether this process is expendable — a
                ``"kill"`` exits it for real only then.
        """
        fault = self.fault_for(key, attempt)
        if fault is None:
            return
        if fault.action == DELAY:
            time.sleep(fault.delay_s)
            return
        if fault.action == RAISE:
            raise InjectedFault(
                f"{fault.message} (key={key!r}, attempt {attempt})"
            )
        if in_worker_process or _EXPENDABLE_WORKER:
            os._exit(KILL_EXIT_CODE)
        raise WorkerKilled(
            f"{fault.message} (key={key!r}, attempt {attempt}; "
            "in-process backend cannot survive a real worker exit)"
        )


@dataclass(frozen=True)
class JournalFault:
    """Crash a job journal mid-append, deterministically.

    ``crash_on_append`` is the 1-based append count that dies; the
    journal writes roughly half the entry's bytes, flushes them to disk
    (so the torn line is really there, as after a kill -9 mid-write),
    then raises :class:`JournalCrash`.
    """

    crash_on_append: int

    def __post_init__(self) -> None:
        if self.crash_on_append < 1:
            raise ValueError(
                f"crash_on_append is 1-based, got {self.crash_on_append}"
            )


class JournalCrash(RuntimeError):
    """Raised by a journal whose :class:`JournalFault` just fired."""
