"""Benchmark child processes: the program under test, optionally traced.

Run from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/child.py ready cli|sim
        import what the workload needs, print ``ready`` and exit
        (the ``setup_s`` probe)
    python3 perfbench/child.py cli [--trace-out F] -- <repro argv>
        ``repro.cli.main(argv)``; with ``--trace-out`` the layer
        boundaries are wrapped first and the spans are written to F
        when ``main`` returns
    python3 perfbench/child.py sim [--trace-out F]
        a long-lived ``PlacementService``: prints ``ready``, then answers
        one JSON request per stdin line with one JSON reply per stdout
        line; ``{"exit": true}`` ends it
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _import_cli() -> dict:
    """Import ``repro.cli`` and describe what the import cost."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    return {
        "repro_cli_s": time.perf_counter() - start,
        "modules": len(sys.modules),
        "scipy": int("scipy" in sys.modules),
    }


def _start_tracer(path: str | None):
    if not path:
        return None
    from tracer import Tracer, install

    from repro.sim import reset_solver_stats

    tracer = Tracer()
    install(tracer)
    reset_solver_stats()
    return tracer


def _finish_tracer(tracer, path: str | None, imports: dict) -> None:
    if tracer is None:
        return
    from repro.sim import solver_stats

    tracer.dump(path, {"imports": imports,
                       "solver": solver_stats().as_dict()})


def _service():
    from repro.service.corpus import corpus_registry
    from repro.service.service import PlacementService

    return PlacementService(registry=corpus_registry())


def _sim_loop(service) -> None:
    from repro.service.requests import PlacementRequest

    for line in sys.stdin:
        message = json.loads(line)
        if message.get("exit"):
            break
        request = PlacementRequest.from_json_dict(message["request"])
        start = time.perf_counter()
        result = service.place(request)
        wall = time.perf_counter() - start
        print(json.dumps({"wall_s": wall, "payload": result.to_json_dict()}),
              flush=True)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    trace_out = None
    if rest[:1] == ["--trace-out"]:
        trace_out, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]

    imports = _import_cli()
    if mode == "ready":
        if rest == ["sim"]:
            _service()
        print("ready", flush=True)
        return 0
    tracer = _start_tracer(trace_out)
    if mode == "cli":
        import repro.cli

        try:
            return repro.cli.main(rest)
        finally:
            sys.stdout.flush()
            _finish_tracer(tracer, trace_out, imports)
    service = _service()
    print("ready", flush=True)
    _sim_loop(service)
    _finish_tracer(tracer, trace_out, imports)
    print(json.dumps({"rss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
