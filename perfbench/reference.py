"""The correctness gate: one recorded result per request the benchmark issues.

``reference.json`` maps each request key (:func:`inputs.key`) to the
result the program gave in-process when the reference was recorded:
placement signature, ``best_cost``, ``sims_used``, ``sims_to_target``,
``target``, the digest of the whole result payload, and for CLI requests
the digest of ``repro place``'s standard output.  A benchmark run checks
every result it sees against its entry; any difference is a failed
operation.  Served results are compared with payloads recorded
in-process, which checks the served ≡ in-process contract from outside.

Regenerate after a change that is meant to alter results::

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import inputs

PATH = Path(__file__).with_name("reference.json")
_CLI_SIMS = re.compile(r"reached after (\S+) simulations \((\d+) total\)")


def digest(obj) -> str:
    """sha256 of an object's canonical JSON (or of a string's text)."""
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load(path: Path = PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def request_json(request: dict, decks: dict) -> dict:
    """The ``PlacementRequest`` JSON body of a benchmark request.

    ``decks`` maps corpus deck names to their ``CorpusEntry``.
    """
    body = {k: request[k] for k in ("steps", "seed")}
    if request.get("batch", 1) != 1:
        body["batch"] = request["batch"]
    if "circuit" in request:
        body["circuit"] = request["circuit"]
        return body
    entry = decks[request["deck"]]
    body.update(
        spice=entry.text(), spice_kind=entry.kind, spice_name=entry.name,
        spice_canvas=list(entry.canvas) if entry.canvas else None,
        spice_inputs=list(entry.input_nets),
        spice_outputs=list(entry.output_nets),
        spice_params=entry.params,
    )
    return body


def cli_argv(request: dict) -> list[str]:
    """``repro`` arguments of a CLI placement request."""
    return ["place", "--circuit", request["circuit"],
            "--steps", str(request["steps"]), "--seed", str(request["seed"])]


def observe_payload(payload: dict) -> dict:
    """The checked fields of a ``PlacementResult`` JSON payload."""
    return {
        "signature": digest(payload["placement"]),
        "best_cost": payload["best_cost"],
        "sims_used": payload["sims_used"],
        "sims_to_target": payload["sims_to_target"],
        "target": payload["target"],
        "payload_sha256": digest(payload),
    }


def observe_cli(stdout: str) -> dict:
    """The checked fields of ``repro place`` output.

    The output names the target and the simulation counts on one line
    (``... reached after N simulations (M total)``); the whole text,
    which includes the rendered placement, is compared by digest.
    """
    out = {"stdout_sha256": digest(stdout)}
    found = _CLI_SIMS.search(stdout)
    if found:
        reached, total = found.groups()
        out["sims_to_target"] = None if reached == "None" else int(reached)
        out["sims_used"] = int(total)
    return out


def mismatches(expected: dict | None, observed: dict) -> list[str]:
    """Fields where ``observed`` differs from the reference entry.

    A request without an entry is a mismatch; fields missing on either
    side are not compared.
    """
    if expected is None:
        return ["no reference entry"]
    return [
        f"{name}: expected {expected[name]!r}, got {observed[name]!r}"
        for name in sorted(set(expected) & set(observed))
        if expected[name] != observed[name]
    ]


def _record() -> dict:
    from repro.cli import main as cli_main
    from repro.service.corpus import corpus_registry, list_corpus
    from repro.service.requests import PlacementRequest
    from repro.service.service import PlacementService

    decks = {entry.name: entry for entry in list_corpus()}
    service = PlacementService(registry=corpus_registry())
    out: dict = {}
    for size in inputs.SIZES:
        for workload, pool in inputs.pools(size).items():
            for request in pool:
                body = request_json(request, decks)
                payload = service.place(
                    PlacementRequest.from_json_dict(body)).to_json_dict()
                entry = observe_payload(json.loads(json.dumps(payload)))
                if workload == "cli_place":
                    buffer = io.StringIO()
                    with contextlib.redirect_stdout(buffer):
                        cli_main(cli_argv(request))
                    entry["stdout_sha256"] = digest(buffer.getvalue())
                out[inputs.key(request)] = entry
                print(f"{inputs.key(request)}: best {entry['best_cost']:.6g}"
                      f" sims {entry['sims_used']}", file=sys.stderr)
    return dict(sorted(out.items()))


if __name__ == "__main__":
    PATH.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"wrote {PATH}", file=sys.stderr)
