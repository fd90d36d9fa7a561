"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``styles``   — measure the symmetric layout styles of a circuit;
* ``fig3``     — run the paper's three-way comparison on one circuit;
* ``ablation`` — run one of the ablation experiments;
* ``spice``    — print a circuit's SPICE deck;
* ``place``    — optimize one circuit and print/export the placement;
* ``train``    — island-model shared-policy training campaign;
* ``serve``    — run the placement service's HTTP JSON layer;
* ``corpus``   — list, validate or bulk-import the bundled SPICE corpus;
* ``worker``   — join a cluster coordinator as an execution worker;
* ``profile``  — per-stage timing breakdown of one evaluation.

Execution placement is uniform: every fan-out command accepts
``--jobs N`` (process pool) and ``--backend SPEC`` (``serial``,
``pool:N``, ``cluster:host:port`` — see
:func:`repro.runtime.backend.make_backend`), and a
``--backend cluster:...`` coordinator is fed by ``repro worker
--connect host:port --jobs N`` daemons on any machine that can reach
it.  Results are bit-identical across all of them.

``place``, ``train`` and ``fig3`` are thin clients of the
:class:`~repro.service.service.PlacementService` facade: they build
typed requests, execute them through the service, and render the unified
:class:`~repro.service.requests.PlacementResult` — exactly what a POST
to the served ``/place``/``/train`` endpoints does, so CLI runs and
served jobs with the same parameters are bit-identical.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.qlearning import MERGE_HOWS
from repro.eval.evaluator import PlacementEvaluator
from repro.layout.generators import (
    STYLES,
    banded_placement,
    random_walk_placements,
)
from repro.layout.render import render_placement
from repro.route.parasitics import parasitic_caps
from repro.runtime import make_backend
from repro.service import PlacementRequest, TrainRequest, default_registry
from repro.service.registry import BUILDERS
from repro.service.service import PlacementService
from repro.sim import reset_solver_stats, solve_ac, solve_dc, solver_stats
from repro.tech import generic_tech_40

def _corpus_names() -> tuple[str, ...]:
    """Corpus deck names for ``choices=`` lists (empty on a broken corpus —
    the ``corpus check`` command is where header errors get reported)."""
    from repro.service.corpus import list_corpus

    try:
        return tuple(entry.name for entry in list_corpus())
    except Exception:
        return ()


def _placeable_circuits() -> list[str]:
    """Builtins plus corpus entries — the ``place``/``train`` choices."""
    return sorted(set(BUILDERS) | set(_corpus_names()))


def _registry_for(circuit: str):
    """The registry that resolves ``circuit``: ``None`` (the default) for
    builtins, a corpus-extended registry for corpus entries."""
    if circuit in BUILDERS:
        return None
    from repro.service.corpus import corpus_registry

    return corpus_registry()


def _backend_from_args(args):
    """The ``--backend``/``--jobs`` pair, reduced to one factory input.

    ``--backend`` (a :func:`repro.runtime.backend.make_backend` spec
    string) wins when given; otherwise ``--jobs`` keeps its historical
    meaning, with serial as the ``--jobs 1`` default.
    """
    spec = getattr(args, "backend", None)
    if spec is not None:
        return spec
    return getattr(args, "jobs", 1)


def _make_service(args, registry=None):
    """A :class:`PlacementService` configured from common CLI flags."""
    return PlacementService(
        registry=registry,
        backend=_backend_from_args(args),
        policies=getattr(args, "policy_dir", None),
    )


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError("jobs cannot be negative")
    return jobs


def _count_arg(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _scale_arg(value: str) -> float:
    scale = float(value)
    if not scale > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return scale


def _add_backend_flag(sub) -> None:
    sub.add_argument("--backend", metavar="SPEC", default=None,
                     help="execution backend: 'serial', 'pool:N', or "
                          "'cluster:HOST:PORT' (a coordinator that "
                          "`repro worker --connect HOST:PORT` daemons "
                          "join); overrides --jobs")


def _build_parser() -> argparse.ArgumentParser:
    from repro.experiments.configs import ALL_CONFIGS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Breaking Symmetry (DAC'25 LBR) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    styles = sub.add_parser("styles", help="measure symmetric layout styles")
    styles.add_argument("--circuit", choices=sorted(BUILDERS), default="cm")

    fig3 = sub.add_parser("fig3", help="run the Fig. 3 comparison")
    fig3.add_argument("circuit_pos", nargs="?", choices=sorted(ALL_CONFIGS),
                      metavar="circuit", default=None,
                      help="circuit to run (same as --circuit)")
    fig3.add_argument("--circuit", choices=sorted(ALL_CONFIGS), default=None)
    fig3.add_argument("--scale", type=_scale_arg, default=1.0,
                      help="step-budget multiplier")
    fig3.add_argument("--jobs", type=_jobs_arg, default=1,
                      help="worker processes for the per-seed fan-out")
    fig3.add_argument("--batch", type=_count_arg, default=1,
                      help="candidate placements priced per agent turn")
    _add_backend_flag(fig3)

    ablation = sub.add_parser("ablation", help="run an ablation experiment")
    ablation.add_argument("which", choices=[
        "hierarchy", "convergence", "linearity", "dummies", "scaling",
    ])
    ablation.add_argument("--circuit", choices=sorted(BUILDERS), default="cm")
    ablation.add_argument("--steps", type=_count_arg, default=400)
    ablation.add_argument("--seed", type=int, default=1)
    ablation.add_argument("--jobs", type=_jobs_arg, default=1,
                          help="worker processes for independent runs")
    ablation.add_argument("--batch", type=_count_arg, default=1,
                          help="candidate placements priced per agent turn")
    _add_backend_flag(ablation)

    spice = sub.add_parser("spice", help="print a circuit's SPICE deck")
    spice.add_argument("--circuit", choices=sorted(BUILDERS), default="cm")

    placeable = _placeable_circuits()
    place = sub.add_parser("place", help="optimize a placement")
    place.add_argument("--circuit", choices=placeable, default="cm")
    place.add_argument("--steps", type=int, default=400)
    place.add_argument("--seed", type=int, default=1)
    place.add_argument("--svg", metavar="PATH",
                       help="write the winning placement as SVG")
    place.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="worker processes (the run executes on the "
                            "shared runtime either way)")
    place.add_argument("--batch", type=_count_arg, default=1,
                       help="candidate placements priced per agent turn")
    place.add_argument("--warm-policy", metavar="REF",
                       help="policy-store snapshot ('name' or 'name@N') "
                            "to warm-start the placer from")
    place.add_argument("--policy-dir", metavar="DIR",
                       help="policy store directory (default: ./policies)")
    _add_backend_flag(place)

    train = sub.add_parser(
        "train",
        help="island-model shared-policy training (merged Q-tables)",
    )
    train.add_argument("circuit", choices=placeable)
    train.add_argument("--workers", type=int, default=4,
                       help="islands per synchronisation round")
    train.add_argument("--rounds", type=int, default=3,
                       help="synchronisation rounds")
    train.add_argument("--steps", type=int, default=150,
                       help="optimizer steps per worker per round")
    train.add_argument("--merge-how", choices=MERGE_HOWS, default="max",
                       help="Q-table conflict rule when folding worker "
                            "tables into the master policy")
    train.add_argument("--placer", choices=("ql", "flat"), default="ql")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--batch", type=_count_arg, default=1,
                       help="candidate placements priced per agent turn")
    train.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="worker processes the islands fan over "
                            "(results are identical at any job count)")
    train.add_argument("--target-scale", type=float, default=1.0,
                       help="multiplier on the symmetric-derived target "
                            "(< 1.0 demands beating the symmetric "
                            "reference, exposing multi-round compounding)")
    train.add_argument("--checkpoint-dir", metavar="DIR",
                       help="write the merged master policy there after "
                            "every round")
    train.add_argument("--run-to-budget", action="store_true",
                       help="keep training after the target is reached "
                            "instead of stopping early")
    train.add_argument("--svg", metavar="PATH",
                       help="write the campaign's best placement as SVG")
    train.add_argument("--warm-policy", metavar="REF",
                       help="policy-store snapshot to warm-start the "
                            "master policy from")
    train.add_argument("--save-policy", metavar="NAME",
                       help="store the final master policy under this "
                            "name (a new version is written)")
    train.add_argument("--policy-dir", metavar="DIR",
                       help="policy store directory (default: ./policies)")
    train.add_argument("--prune-min-visits", type=int, default=0,
                       help="drop master entries with fewer visits before "
                            "the policy-store snapshot")
    train.add_argument("--prune-min-abs-q", type=float, default=0.0,
                       help="drop master entries with |Q| below this "
                            "before the policy-store snapshot")
    _add_backend_flag(train)

    serve = sub.add_parser(
        "serve",
        help="run the placement service's HTTP JSON layer",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="worker processes each request fans over")
    serve.add_argument("--job-workers", type=int, default=2,
                       help="concurrent jobs in the async job manager")
    serve.add_argument("--policy-dir", metavar="DIR",
                       help="policy store directory (default: ./policies)")
    serve.add_argument("--journal-dir", metavar="DIR",
                       help="durable job journal directory: every job "
                            "transition is fsynced there, and restarting "
                            "on the same directory recovers finished "
                            "results and re-runs interrupted jobs")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       metavar="N",
                       help="reject submissions (HTTP 429) once N jobs "
                            "are queued (default: unbounded)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="reject a client's submissions (HTTP 429) "
                            "once it has N jobs queued or running "
                            "(default: unlimited)")
    serve.add_argument("--dedup", action="store_true",
                       help="identical in-flight requests share one job")
    serve.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retry failed/killed placement attempts up "
                            "to N times with deterministic backoff "
                            "(default: 0 = fail fast)")
    serve.add_argument("--attempt-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-attempt time budget; stuck pool workers "
                            "are killed and the attempt retried "
                            "(needs --retries)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request to stderr")
    _add_backend_flag(serve)
    serve.add_argument("--workers-listen", metavar="HOST:PORT",
                       help="serve over a cluster backend listening "
                            "there for `repro worker` daemons "
                            "(shorthand for --backend cluster:HOST:PORT)")
    serve.add_argument("--result-cache", action="store_true",
                       help="serve repeated identical requests from the "
                            "first completed job's result (keyed by the "
                            "canonical request hash; persists across "
                            "restarts with --journal-dir)")
    serve.add_argument("--result-cache-max-entries", type=int, default=None,
                       metavar="N",
                       help="cap the result cache at N distinct request "
                            "hashes, evicting least-recently-served "
                            "entries (implies --result-cache)")
    serve.add_argument("--result-cache-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="expire result-cache entries this long after "
                            "their job finished; the TTL is journaled, so "
                            "expiry survives --journal-dir restarts "
                            "(implies --result-cache)")
    serve.add_argument("--corpus", action="store_true",
                       help="also register every bundled corpus deck, so "
                            "/place and /train accept corpus circuit names")

    zoo = sub.add_parser(
        "zoo",
        help="signature-indexed policy zoo: cross-circuit warm-start "
             "transfer",
    )
    zoo.add_argument("action", choices=("build", "list", "match", "train-all"),
                     help="build: print a circuit's primitive signatures; "
                          "list: show stored policies carrying zoo "
                          "signature metadata; match: dry-run the "
                          "warm-start auto-selection for a circuit; "
                          "train-all: train and store a zoo policy for "
                          "every corpus deck")
    zoo.add_argument("--circuit", default=None,
                     help="circuit for build/match (builtin or corpus "
                          "name; build defaults to all)")
    zoo.add_argument("--placer", choices=("ql", "flat"), default="ql")
    zoo.add_argument("--min-tier", choices=("exact", "coarse"),
                     default="coarse",
                     help="weakest signature tier a group match may use")
    zoo.add_argument("--max-sources", type=_count_arg, default=4,
                     help="most stored policies folded per agent")
    zoo.add_argument("--policy-dir", metavar="DIR",
                     help="policy store directory (default: ./policies)")
    zoo.add_argument("--workers", type=_count_arg, default=2,
                     help="train-all: islands per synchronisation round")
    zoo.add_argument("--rounds", type=_count_arg, default=2,
                     help="train-all: synchronisation rounds")
    zoo.add_argument("--steps", type=_count_arg, default=150,
                     help="train-all: optimizer steps per worker per round")
    zoo.add_argument("--seed", type=int, default=0)
    zoo.add_argument("--jobs", type=_jobs_arg, default=1,
                     help="worker processes for train-all campaigns")
    _add_backend_flag(zoo)

    corpus = sub.add_parser(
        "corpus",
        help="list, validate or bulk-import the bundled SPICE corpus",
    )
    corpus.add_argument("action", choices=("list", "check", "import"),
                        help="list: show deck headers; check: run every "
                             "deck through the ingestion pipeline and "
                             "exit non-zero on any error; import: "
                             "register every deck and print the "
                             "resulting circuit table")
    corpus.add_argument("--dir", metavar="PATH", default=None,
                        help="corpus directory (default: the bundled "
                             "corpus/, or $REPRO_CORPUS_DIR)")
    corpus.add_argument("--verbose", action="store_true",
                        help="also print warnings for passing decks")

    worker = sub.add_parser(
        "worker",
        help="join a cluster coordinator as an execution worker",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's cluster address (what "
                             "`--backend cluster:HOST:PORT` listens on)")
    worker.add_argument("--jobs", type=_jobs_arg, default=1,
                        help="execution slots (one process + one "
                             "coordinator connection each)")
    worker.add_argument("--name", default=None,
                        help="worker label in coordinator logs/metrics "
                             "(default: host:pid)")
    worker.add_argument("--heartbeat", type=float, default=None,
                        metavar="SECONDS",
                        help="heartbeat interval (default 1.0)")

    profile = sub.add_parser(
        "profile",
        help="per-stage timing breakdown of one placement evaluation",
    )
    profile.add_argument("circuit", choices=sorted(BUILDERS))
    profile.add_argument("--style", choices=STYLES, default="ysym",
                         help="placement style to evaluate")
    profile.add_argument("--repeats", type=int, default=5,
                         help="timing repeats per stage (best-of is shown)")
    profile.add_argument("--batch", type=_count_arg, default=8,
                         help="candidate count for the batched-vs-"
                              "sequential evaluation rows")
    return parser


def _cmd_styles(args) -> int:
    block = BUILDERS[args.circuit]()
    evaluator = PlacementEvaluator(block)
    for style in ("sequential", "ysym", "common_centroid"):
        placement = banded_placement(block, style)
        metrics = evaluator.evaluate(placement)
        print(f"--- {style} ---")
        print(render_placement(placement, block.circuit, legend=False))
        print(metrics.summary())
        print()
    return 0


def _cmd_fig3(args) -> int:
    if (args.circuit_pos is not None and args.circuit is not None
            and args.circuit_pos != args.circuit):
        raise SystemExit(
            f"fig3: conflicting circuits: positional {args.circuit_pos!r} "
            f"vs --circuit {args.circuit!r}"
        )
    from repro.experiments import format_fig3

    circuit = args.circuit_pos or args.circuit or "cm"
    service = _make_service(args)  # carries the --jobs backend already
    print(format_fig3(service.fig3(
        circuit, scale=args.scale, batch=args.batch,
    )))
    return 0


def _cmd_ablation(args) -> int:
    from repro.experiments import (
        format_convergence,
        format_dummies,
        format_hierarchy,
        format_linearity,
        run_convergence_ablation,
        run_dummy_ablation,
        run_hierarchy_ablation,
        run_linearity_ablation,
    )
    from repro.experiments.scaling import format_scaling, run_scaling

    circuit = args.circuit
    backend = make_backend(_backend_from_args(args))
    if args.which == "hierarchy":
        print(format_hierarchy(run_hierarchy_ablation(
            circuit, max_steps=args.steps, seed=args.seed, backend=backend,
            batch=args.batch)))
    elif args.which == "convergence":
        print(format_convergence(run_convergence_ablation(
            circuit, max_steps=args.steps, seed=args.seed, backend=backend,
            batch=args.batch)))
    elif args.which == "linearity":
        print(format_linearity(run_linearity_ablation(
            circuit, max_steps=args.steps, seed=args.seed,
            backend=backend, batch=args.batch)))
    elif args.which == "dummies":
        print(format_dummies(run_dummy_ablation(
            circuit, max_steps=args.steps, seed=args.seed, backend=backend,
            batch=args.batch)))
    else:
        print(format_scaling(run_scaling(
            max_steps=args.steps, seed=args.seed, backend=backend,
            batch=args.batch)))
    return 0


def _cmd_spice(args) -> int:
    from repro.netlist.spice import to_spice

    block = BUILDERS[args.circuit]()
    sys.stdout.write(to_spice(block.circuit, generic_tech_40()))
    return 0


def _cmd_place(args) -> int:
    registry = _registry_for(args.circuit)
    block = (registry or default_registry()).build(args.circuit)
    try:
        request = PlacementRequest(
            circuit=args.circuit, steps=args.steps, seed=args.seed,
            batch=args.batch, warm_policy=args.warm_policy,
        )
        result = _make_service(args, registry=registry).place(request)
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"place: {exc}")
    placement = result.placement_object()
    print(result.metrics_object().summary())
    print(f"target (best symmetric): {result.target:.4f}  "
          f"reached after {result.sims_to_target} simulations "
          f"({result.sims_used} total)")
    print(render_placement(placement, block.circuit))
    if args.svg:
        from repro.layout.svg import save_placement_svg

        save_placement_svg(placement, block.circuit, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_train(args) -> int:
    from repro.experiments import format_campaign

    try:
        request = TrainRequest(
            circuit=args.circuit,
            workers=args.workers,
            rounds=args.rounds,
            steps=args.steps,
            placer=args.placer,
            merge_how=args.merge_how,
            seed=args.seed,
            batch=args.batch,
            target_scale=args.target_scale,
            stop_at_target=not args.run_to_budget,
            warm_policy=args.warm_policy,
            save_policy=args.save_policy,
            prune_min_visits=args.prune_min_visits,
            prune_min_abs_q=args.prune_min_abs_q,
        )
        registry = _registry_for(args.circuit)
        result = _make_service(args, registry=registry).train(
            request, checkpoint_dir=args.checkpoint_dir
        )
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"train: {exc}")
    print(format_campaign(result.detail))
    block = (registry or default_registry()).build(args.circuit)
    placement = result.placement_object()
    print(result.metrics_object().summary())
    print(render_placement(placement, block.circuit))
    if args.checkpoint_dir:
        print(f"checkpoints in {args.checkpoint_dir}")
    if result.policy:
        print(f"stored policy {result.policy}")
    if args.svg:
        from repro.layout.svg import save_placement_svg

        save_placement_svg(placement, block.circuit, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_serve(args) -> int:
    from repro.runtime.resilience import RetryPolicy
    from repro.service.http import serve

    retry = None
    if args.retries > 0 or args.attempt_timeout is not None:
        retry = RetryPolicy(
            max_attempts=max(1, args.retries + 1),
            timeout_s=args.attempt_timeout,
        )
    backend = _backend_from_args(args)
    if args.workers_listen:
        if args.backend is not None:
            raise SystemExit(
                "serve: pass either --backend or --workers-listen, not both"
            )
        backend = f"cluster:{args.workers_listen}"
    registry = None
    if args.corpus:
        from repro.service.corpus import corpus_registry

        registry = corpus_registry()
    service = PlacementService(
        registry=registry,
        backend=backend,
        policies=args.policy_dir,
        job_workers=args.job_workers,
        journal_dir=args.journal_dir,
        retry=retry,
        max_queue_depth=args.max_queue_depth,
        max_inflight_per_client=args.max_inflight,
        dedup=args.dedup,
        result_cache=(args.result_cache
                      or args.result_cache_max_entries is not None
                      or args.result_cache_ttl is not None),
        result_cache_max_entries=args.result_cache_max_entries,
        result_cache_ttl_s=args.result_cache_ttl,
    )
    cluster_spec = getattr(service.backend, "spec", None)
    if cluster_spec is not None:
        print(
            f"cluster coordinator on {cluster_spec} — add workers with "
            f"`repro worker --connect "
            f"{cluster_spec.partition(':')[2]} --jobs N`"
        )
    if service.recovery is not None:
        print(
            f"recovered journal {service.journal.path}: "
            f"{len(service.recovery.served_from_journal)} served from "
            f"journal, {len(service.recovery.requeued)} re-enqueued"
        )
    serve(service, host=args.host, port=args.port, quiet=not args.verbose)
    return 0


def _cmd_corpus(args) -> int:
    """List, validate or bulk-import the bundled SPICE corpus."""
    from repro.service.corpus import (
        check_corpus,
        corpus_dir,
        corpus_registry,
        list_corpus,
    )

    directory = args.dir if args.dir is not None else corpus_dir()
    entries = list_corpus(directory)
    if not entries:
        raise SystemExit(f"corpus: no decks found in {directory}")

    if args.action == "list":
        print(f"{len(entries)} deck(s) in {directory}")
        for e in entries:
            canvas = f"{e.canvas[0]}x{e.canvas[1]}" if e.canvas else "auto"
            labels = " ".join(
                f"{label}:{','.join(devs)}" for label, devs in e.labels
            )
            print(f"  {e.name:<22s} kind={e.kind:<5s} canvas={canvas:<7s} "
                  f"{labels}")
        return 0

    if args.action == "check":
        failures = 0
        for chk in check_corpus(directory):
            status = "ok" if chk.ok else "FAIL"
            print(f"  {chk.entry.name:<22s} {status:<5s} "
                  f"{chk.report.summary()}")
            findings = chk.report.errors if not args.verbose \
                else chk.report.findings
            for finding in findings:
                print(f"      [{finding.level}] {finding.code}: "
                      f"{finding.message}")
            if chk.build_error:
                print(f"      [error] build: {chk.build_error}")
            if not chk.ok:
                failures += 1
        print(f"corpus check: {len(entries) - failures}/{len(entries)} "
              f"deck(s) clean")
        return 1 if failures else 0

    # import: register everything and show the resulting circuit table.
    registry = corpus_registry(directory)
    for e in entries:
        block = registry.build(e.name)
        print(f"  {e.name:<22s} kind={block.kind:<5s} "
              f"canvas={block.canvas[0]}x{block.canvas[1]} "
              f"groups={len(block.groups)} pairs={len(block.pairs)} "
              f"units={block.circuit.total_units()}")
    print(f"registered {len(entries)} corpus circuit(s); "
          f"registry now: {', '.join(registry.keys())}")
    return 0


def _cmd_zoo(args) -> int:
    """Inspect and populate the signature-indexed policy zoo.

    ``build`` and ``match`` are read-only dry runs of exactly what the
    service's ``warm_policy="auto"`` path computes; ``train-all`` runs a
    short island campaign per corpus deck and stores each master policy
    (with its signature metadata) as ``zoo-<deck>``, so a subsequent
    ``repro place --warm-policy auto`` or served ``/place`` has something
    to transfer from.
    """
    import json as _json

    from repro.service.corpus import corpus_registry, list_corpus
    from repro.zoo import ZooIndex, signature_meta

    registry = corpus_registry()

    def _block(name: str):
        try:
            return registry.build(name)
        except KeyError as exc:
            raise SystemExit(f"zoo: {exc}")

    if args.action == "build":
        names = [args.circuit] if args.circuit else sorted(registry.keys())
        for name in names:
            meta = signature_meta(_block(name))
            print(f"{name}: {meta['circuit_signature']}")
            for group, key in sorted(meta["groups"].items()):
                print(f"  {group:<12s} {key}")
        return 0

    service = _make_service(args, registry=registry)

    if args.action == "list":
        entries = ZooIndex(service.policies).entries()
        if not entries:
            print("no zoo-indexed policies stored "
                  f"(root: {service.policies.root})")
            return 0
        for info in entries:
            zoo_meta = info.meta["zoo"]
            print(f"{info.ref:<20s} {zoo_meta.get('circuit_signature', '')}")
            visits = zoo_meta.get("group_visits", {})
            for group, key in sorted(zoo_meta.get("groups", {}).items()):
                print(f"  {group:<12s} {key}  "
                      f"(visits: {visits.get(group, 0)})")
        return 0

    if args.action == "match":
        if not args.circuit:
            raise SystemExit("zoo: match needs --circuit")
        match = ZooIndex(service.policies).match(
            _block(args.circuit), placer=args.placer,
            min_tier=args.min_tier, max_sources=args.max_sources,
        )
        print(_json.dumps(match.report, indent=2, sort_keys=True))
        return 0

    # train-all: one stored zoo policy per corpus deck.
    refs = []
    for entry in list_corpus():
        request = TrainRequest(
            circuit=entry.name, workers=args.workers, rounds=args.rounds,
            steps=args.steps, placer=args.placer, seed=args.seed,
            save_policy=f"zoo-{entry.name}",
        )
        result = service.train(request)
        refs.append(result.policy)
        print(f"  {entry.name:<22s} -> {result.policy} "
              f"(best {result.best_cost:.4f}, "
              f"{result.sims_used} simulations)")
    print(f"zoo: stored {len(refs)} polic(ies) in {service.policies.root}")
    return 0


def _cmd_worker(args) -> int:
    from repro.runtime.cluster import DEFAULT_HEARTBEAT_S, worker_main

    host, sep, port = args.connect.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"worker: --connect expects HOST:PORT, got {args.connect!r}"
        )
    heartbeat = (
        DEFAULT_HEARTBEAT_S if args.heartbeat is None else args.heartbeat
    )
    jobs = max(1, args.jobs)
    print(f"repro worker: {jobs} slot(s) -> {host or '127.0.0.1'}:{port}")
    return worker_main(
        host or "127.0.0.1", int(port), jobs=jobs,
        name=args.name, heartbeat_s=heartbeat,
    )


def _cmd_profile(args) -> int:
    """Per-stage wall-clock of the evaluation pipeline for one circuit.

    Stages time what :meth:`PlacementEvaluator.evaluate` runs: unit
    contexts and variation deltas → parasitic capacitances (of a fresh,
    unmemoised placement each repeat) → the DC bench's rebind and solve
    (the comparator's three input levels as one stacked solve) → for an
    OTA, the AC bench's rebind with the placement's capacitances and the
    sweep over the suite's grid → the full measurement suite.  The DC
    solves start from the placement's own operating point, as the
    full-suite repeats do.  The suite row *includes* its internal DC/AC
    solves; the end-to-end row is one whole cache-miss evaluation.  The
    final two rows price ``--batch`` candidate placements sequentially
    vs through :meth:`PlacementEvaluator.evaluate_many` (the
    placement-batched compiled solves), with the resulting speedup.
    Every timed evaluation starts from empty result and operating-point
    caches, so it simulates rather than reads a stored result.  A
    trailing solver split reports the fast path's internals: Newton
    iterations, Jacobian factorizations vs frozen-Jacobian reuses,
    operating-point-cache hits, and the stacked AC solve time.
    """
    if args.repeats < 1:
        raise SystemExit("profile: --repeats must be >= 1")
    from repro.eval.suites import AC_FREQS, BENCHES, COMP_STAGES, _comp_inputs

    block = BUILDERS[args.circuit]()
    tech = generic_tech_40()
    evaluator = PlacementEvaluator(block, tech=tech)
    placement = banded_placement(block, args.style)

    def best_of(fn) -> float:
        times = []
        for __ in range(args.repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    deltas = evaluator.deltas_for(placement)
    bench = BENCHES[block.kind](block, tech)
    dc_bench = bench.closed if block.kind == "ota" else bench.dc
    overrides = None
    if block.kind == "comp":
        overrides = [_comp_inputs(block.params["vcm"], vdiff)
                     for __, vdiff in COMP_STAGES]

    def dc(x0=None):
        return solve_dc(dc_bench.circuit, tech, deltas=deltas, x0=x0,
                        source_values=overrides,
                        system=dc_bench.rebind(deltas))

    op = dc()
    x0 = [row.x for row in op] if overrides else op.x
    fresh = iter([banded_placement(block, args.style)
                  for __ in range(args.repeats)])

    def cold():
        evaluator.clear_cache()
        evaluator.clear_op_cache()

    def full_evaluate():
        cold()
        evaluator.evaluate(placement)

    candidates = random_walk_placements(
        block, args.batch, style=args.style)

    def sequential_batch():
        cold()
        for p in candidates:
            evaluator.evaluate(p)

    def batched_batch():
        cold()
        evaluator.evaluate_many(candidates)

    stages = [
        ("contexts+deltas", lambda: evaluator.deltas_for(placement)),
        ("parasitics", lambda: parasitic_caps(
            block.circuit, next(fresh), tech)),
        ("dc", lambda: dc(x0)),
    ]
    if block.kind == "ota":
        caps = bench.block_caps + list(
            parasitic_caps(block.circuit, placement, tech).values())
        stages.append(("ac", lambda: solve_ac(
            bench.ac.circuit, tech, op.voltages, AC_FREQS, deltas=deltas,
            system=bench.ac.rebind(deltas, caps), nets=("outp",))))
    stages.append(("measures (full suite)", full_evaluate))
    print(f"profile: {block.name} ({args.circuit}), style={args.style}, "
          f"best of {args.repeats}")
    total = 0.0
    for name, fn in stages:
        elapsed = best_of(fn)
        if name != "measures (full suite)":
            total += elapsed
        print(f"  {name:<24s} {elapsed * 1e3:9.3f} ms")
    summed = "ctx+par+dc+ac" if block.kind == "ota" else "ctx+par+dc"
    print(f"  {f'stages ({summed})':<24s} {total * 1e3:9.3f} ms")

    n = len(candidates)
    sequential_batch()  # warm every candidate's topology/warm-start
    seq = best_of(sequential_batch)
    many = best_of(batched_batch)
    print(f"  {f'evaluate x{n} (sequential)':<24s} {seq * 1e3:9.3f} ms")
    print(f"  {f'evaluate_many x{n}':<24s} {many * 1e3:9.3f} ms"
          f"   ({seq / many:.2f}x)")

    reset_solver_stats()
    sequential_batch()
    batched_batch()
    stats = solver_stats()
    warm_total = (stats.warm_exact_hits + stats.warm_near_hits
                  + stats.warm_misses)
    print(f"  solver split (sequential + batched pass over "
          f"{n} candidates):")
    print(f"    newton iterations     {stats.newton_iterations}")
    print(f"    jacobian factor/reuse "
          f"{stats.jacobian_factorizations}/{stats.jacobian_reuses}"
          f"   (reuse rate {stats.factor_reuse_rate:.0%})")
    print(f"    op-cache exact/near/miss "
          f"{stats.warm_exact_hits}/{stats.warm_near_hits}/"
          f"{stats.warm_misses}"
          + (f"   (hit rate {stats.warm_hit_rate:.0%})"
             if warm_total else ""))
    print(f"    ac stacked solve      {stats.ac_solve_s * 1e3:.3f} ms")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "styles": _cmd_styles,
        "fig3": _cmd_fig3,
        "ablation": _cmd_ablation,
        "spice": _cmd_spice,
        "place": _cmd_place,
        "train": _cmd_train,
        "serve": _cmd_serve,
        "zoo": _cmd_zoo,
        "corpus": _cmd_corpus,
        "worker": _cmd_worker,
        "profile": _cmd_profile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
