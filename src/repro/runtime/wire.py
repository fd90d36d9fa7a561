"""Wire protocol for the distributed execution backend.

Everything a :class:`~repro.runtime.cluster.ClusterBackend` puts on a
TCP socket is defined here, in one place, so the protocol can be tested
on its own: the codecs without any socket, the framing over a
``socket.socketpair()``:

* **Framing** — length-prefixed JSON.  Each frame is a 4-byte
  big-endian length followed by that many bytes of UTF-8 JSON.  Frames
  above :data:`MAX_FRAME_BYTES` are refused on both ends (a corrupt
  length prefix must not allocate gigabytes), and torn/partial frames
  raise :class:`FrameError` instead of silently truncating.

* **Spec codec** — a :class:`~repro.runtime.spec.RunSpec` travels as
  its :meth:`~repro.runtime.spec.RunSpec.to_request` JSON (the wire
  form the service already speaks: a library key, or a SPICE deck as
  the inline-``spice`` fields) plus an ``extras`` dict carrying the
  exact values of the fields the request schema does not model
  (``builder_kwargs``, ``variation_kind``, ``evaluate_best``,
  ``return_tables``, ``initial_tables``, ...).  Shipping the extras
  verbatim — instead of refusing them the way ``to_request`` does —
  is what lets training campaigns run on remote workers without the
  wire form executing a *different* run.

* **Outcome codec** — :class:`~repro.runtime.spec.RunOutcome` fields
  via the repo's existing exact serialisers (``placement_to_dict``,
  ``metrics_to_dict``, ``tables_to_payload``).  Python's ``json``
  module emits ``repr``-exact floats (binary64 round-trips), so a
  decoded outcome compares bit-identical to the in-process one — the
  property the serial ≡ pool ≡ cluster invariant rests on.

* **Task codecs** — exactly two, both JSON: ``spec`` runs
  :func:`~repro.runtime.spec.execute_run` on a :class:`RunSpec` and
  ``attempt`` runs ``_execute_attempt`` on an :class:`AttemptEnvelope`.
  :func:`encode_task` refuses any other function before anything is
  sent, a worker runs no other code, and a result is always decoded as
  the :class:`RunOutcome` of the task the coordinator sent, whatever
  the peer claims.  No frame is ever unpickled, so a peer that can
  reach the port can take or answer placement work, but not run code.

Keys need care: spec keys are hashable trees of tuples/strings/numbers
(``("QL", 3)``, ``(round, worker)``) and ``map_runs`` *verifies* the
echoed key equals the spec's.  JSON would flatten tuples into lists, so
:func:`encode_key` tags them (``{"__tuple__": [...]}``) and
:func:`decode_key` restores them exactly.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import replace
from typing import Any, Callable, Hashable

from repro.core.persistence import tables_from_payload, tables_to_payload
from repro.core.optimizer import PlacerResult
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.resilience import AttemptEnvelope, _execute_attempt
from repro.runtime.spec import RunOutcome, RunSpec, execute_run
from repro.service.requests import (
    PlacementRequest,
    metrics_from_dict,
    metrics_to_dict,
    placement_from_dict,
    placement_to_dict,
)

#: Hard ceiling on a single frame.  Large enough for any realistic
#: warm-start table snapshot, small enough that a corrupted length
#: prefix cannot make either end allocate unbounded memory.
MAX_FRAME_BYTES = 64 << 20

#: Length prefix: 4-byte unsigned big-endian.
_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size


class FrameError(RuntimeError):
    """A frame that cannot be accepted: torn, oversized, or not JSON."""


# --------------------------------------------------------------- framing


def encode_frame(payload: Any) -> bytes:
    """One wire frame: 4-byte big-endian length + UTF-8 JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def send_frame(sock: socket.socket, payload: Any) -> None:
    """Write one frame to a connected socket."""
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame
    boundary; :class:`FrameError` on EOF mid-frame."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise FrameError(
                f"connection closed mid-frame ({got}/{n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any | None:
    """Read one frame from a connected socket.

    Returns ``None`` on a clean EOF (the peer closed between frames);
    raises :class:`FrameError` on a torn or oversized frame.
    """
    header = _recv_exact(sock, HEADER_BYTES)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame declares {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("connection closed between header and body")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc


# ------------------------------------------------------------- key codec

_TUPLE_TAG = "__tuple__"


def encode_key(key: Hashable) -> Any:
    """JSON-safe form of a spec merge key, tuples tagged for revival.

    Supports the hashable-tree family the drivers actually use:
    strings, ints, floats, bools, ``None``, and tuples thereof.
    """
    if isinstance(key, tuple):
        return {_TUPLE_TAG: [encode_key(part) for part in key]}
    if key is None or isinstance(key, (str, int, float, bool)):
        return key
    raise FrameError(
        f"key {key!r} of type {type(key).__name__} has no wire form "
        "(use strings, numbers, or tuples thereof)"
    )


def decode_key(data: Any) -> Hashable:
    """Inverse of :func:`encode_key` — tuples come back as tuples."""
    if isinstance(data, dict):
        if set(data) != {_TUPLE_TAG}:
            raise FrameError(f"malformed key payload: {data!r}")
        return tuple(decode_key(part) for part in data[_TUPLE_TAG])
    return data


# ----------------------------------------------------------- fault codec


def fault_plan_to_wire(plan: FaultPlan | None) -> list | None:
    """JSON-plain form of a :class:`FaultPlan` (or ``None``)."""
    if plan is None:
        return None
    return [
        [encode_key(key), attempt,
         {"action": fault.action, "delay_s": fault.delay_s,
          "message": fault.message}]
        for key, attempt, fault in plan.faults
    ]


def fault_plan_from_wire(data: list | None) -> FaultPlan | None:
    if data is None:
        return None
    return FaultPlan(faults=tuple(
        (decode_key(key), int(attempt),
         Fault(action=fault["action"], delay_s=fault["delay_s"],
               message=fault["message"]))
        for key, attempt, fault in data
    ))


# ------------------------------------------------------------ spec codec

def spec_to_wire(spec: RunSpec) -> dict:
    """Frame payload for a :class:`RunSpec`."""
    # Project the spec onto the request schema (to_request refuses
    # off-schema fields; the extras dict carries them exactly).
    projected = replace(
        spec,
        builder_kwargs=(),
        variation_kind=None,
        evaluate_best=True,
        return_tables=False,
        initial_tables=None,
    )
    try:
        kwargs = [[name, value] for name, value in spec.builder_kwargs]
        json.dumps(kwargs)
    except (TypeError, ValueError) as exc:
        raise FrameError(
            f"builder_kwargs {spec.builder_kwargs!r} are not "
            f"JSON-serialisable: {exc}"
        ) from exc
    extras = {
        "builder_kwargs": kwargs,
        "variation_kind": spec.variation_kind,
        "variation_with_lde": spec.variation_with_lde,
        "evaluate_best": spec.evaluate_best,
        "return_tables": spec.return_tables,
        "share_target_evaluator": spec.share_target_evaluator,
        "target": spec.target,
        "target_from_symmetric": spec.target_from_symmetric,
        "stop_at_target": spec.stop_at_target,
        "initial_tables": (
            None if spec.initial_tables is None
            else tables_to_payload(spec.initial_tables)
        ),
    }
    return {
        "key": encode_key(spec.key),
        "request": projected.to_request().to_json_dict(),
        "extras": extras,
    }


def spec_from_wire(data: dict) -> RunSpec:
    """Rebuild the exact :class:`RunSpec` :func:`spec_to_wire` shipped."""
    request = PlacementRequest.from_json_dict(data["request"])
    extras = data["extras"]
    spec = RunSpec.from_request(request, key=decode_key(data["key"]))
    return replace(
        spec,
        builder_kwargs=tuple(
            (str(name), value) for name, value in extras["builder_kwargs"]
        ),
        variation_kind=extras["variation_kind"],
        variation_with_lde=extras["variation_with_lde"],
        evaluate_best=extras["evaluate_best"],
        return_tables=extras["return_tables"],
        share_target_evaluator=extras["share_target_evaluator"],
        target=extras["target"],
        target_from_symmetric=extras["target_from_symmetric"],
        stop_at_target=extras["stop_at_target"],
        initial_tables=(
            None if extras["initial_tables"] is None
            else tables_from_payload(extras["initial_tables"])
        ),
    )


# --------------------------------------------------------- outcome codec


def outcome_to_wire(outcome: RunOutcome) -> dict:
    """Frame payload for a :class:`RunOutcome` — exact, via the repo's
    canonical serialisers (floats round-trip bit-identically)."""
    result = outcome.result
    return {
        "key": encode_key(outcome.key),
        "result": {
            "best_placement": placement_to_dict(result.best_placement),
            "best_cost": result.best_cost,
            "initial_cost": result.initial_cost,
            "sims_used": result.sims_used,
            "steps": result.steps,
            "reached_target": result.reached_target,
            "sims_to_target": result.sims_to_target,
            "history": [[sims, cost] for sims, cost in result.history],
            "diagnostics": result.diagnostics,
        },
        "metrics": metrics_to_dict(outcome.metrics),
        "target": outcome.target,
        "tables": (
            None if outcome.tables is None
            else tables_to_payload(outcome.tables)
        ),
    }


def outcome_from_wire(data: dict) -> RunOutcome:
    r = data["result"]
    result = PlacerResult(
        best_placement=placement_from_dict(r["best_placement"]),
        best_cost=r["best_cost"],
        initial_cost=r["initial_cost"],
        sims_used=r["sims_used"],
        steps=r["steps"],
        reached_target=r["reached_target"],
        sims_to_target=r["sims_to_target"],
        history=[(sims, cost) for sims, cost in r["history"]],
        diagnostics=r["diagnostics"],
    )
    return RunOutcome(
        key=decode_key(data["key"]),
        result=result,
        metrics=metrics_from_dict(data["metrics"]),
        target=data["target"],
        tables=(
            None if data["tables"] is None
            else tables_from_payload(data["tables"])
        ),
    )


# -------------------------------------------------------- envelope codec


def envelope_to_wire(envelope: AttemptEnvelope) -> dict:
    return {
        "spec": spec_to_wire(envelope.spec),
        "attempt": envelope.attempt,
        "backoff_s": envelope.backoff_s,
        "faults": fault_plan_to_wire(envelope.faults),
        "origin_pid": envelope.origin_pid,
    }


def envelope_from_wire(data: dict) -> AttemptEnvelope:
    return AttemptEnvelope(
        spec=spec_from_wire(data["spec"]),
        attempt=int(data["attempt"]),
        backoff_s=float(data["backoff_s"]),
        faults=fault_plan_from_wire(data["faults"]),
        origin_pid=int(data["origin_pid"]),
    )


# ----------------------------------------------------------- task codecs

#: Task codec names (the ``codec`` field of a work frame).
CODEC_SPEC = "spec"          # RunSpec -> execute_run
CODEC_ATTEMPT = "attempt"    # AttemptEnvelope -> _execute_attempt


def encode_task(fn: Callable, item: Any) -> dict:
    """Encode one ``(fn, item)`` work unit for a work frame.

    Raises:
        TypeError: ``fn``/``item`` is not ``execute_run`` over a
            :class:`RunSpec` or ``_execute_attempt`` over an
            :class:`AttemptEnvelope` — the only work a worker runs.
    """
    if fn is execute_run and isinstance(item, RunSpec):
        return {"codec": CODEC_SPEC, "task": spec_to_wire(item)}
    if fn is _execute_attempt and isinstance(item, AttemptEnvelope):
        return {"codec": CODEC_ATTEMPT, "task": envelope_to_wire(item)}
    raise TypeError(
        "cluster workers run only execute_run over RunSpecs and "
        f"_execute_attempt over AttemptEnvelopes, got "
        f"{getattr(fn, '__qualname__', fn)!r} over {type(item).__name__}"
    )


def execute_task(task: dict) -> dict:
    """Worker-side: run one encoded task, return its encoded result.

    Never raises for a task-level failure — the worker must keep its
    connection alive — except for faults that *intend* to kill the
    process (``os._exit`` never returns here at all).
    """
    try:
        codec = task.get("codec")
        if codec == CODEC_SPEC:
            value = execute_run(spec_from_wire(task["task"]))
        elif codec == CODEC_ATTEMPT:
            value = _execute_attempt(envelope_from_wire(task["task"]))
        else:
            raise FrameError(f"unknown task codec {codec!r}")
        payload = outcome_to_wire(value)
    except Exception as exc:  # noqa: BLE001 — settled, not raised
        return {
            "status": "error",
            "error": str(exc),
            "error_type": type(exc).__name__,
        }
    return {"status": "ok", "value": payload}
