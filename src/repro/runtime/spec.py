"""Lightweight, plain-data run specifications and the worker that runs them.

The experiment drivers never ship live objects across the process
boundary — a :class:`PlacementEvaluator` holds a memoisation cache, and
the placers hold ``sim_counter=lambda: evaluator.sim_count`` closures,
neither of which pickles.  Instead a driver describes each independent
optimizer run as a :class:`RunSpec` (circuit builder, placer kind, seed,
budgets) and :func:`map_runs` executes the specs on a backend;
:func:`execute_run` — the module-level worker — reconstructs the
evaluator, environment and placer *inside* the worker process.

Because every spec carries everything the run depends on, and every
reconstruction is deterministic, a spec produces bit-identical results
on :class:`~repro.runtime.backend.SerialBackend` and
:class:`~repro.runtime.backend.ProcessPoolBackend`.  Results come back
in spec order (never completion order) and carry the spec's ``key`` so
drivers merge them deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

from repro.core.hierarchy import FlatQPlacer, MultiLevelPlacer
from repro.core.optimizer import PlacerResult
from repro.core.policy import EpsilonSchedule
from repro.core.qlearning import EXPLORATIONS, MERGE_HOWS
from repro.eval.evaluator import PlacementEvaluator
from repro.eval.objective import ObjectiveWeights
from repro.eval.metrics import Metrics
from repro.layout.env import PlacementEnv
from repro.layout.generators import banded_placement
from repro.netlist.library import AnalogBlock
from repro.runtime.backend import ExecutionBackend, SerialBackend
from repro.service.registry import (
    CircuitRegistry,
    SpiceDeck,
    build_circuit,
    check_circuit,
    default_registry,
)
from repro.service.requests import PLACER_KINDS, PlacementRequest
from repro.tech import generic_tech_40
from repro.variation import default_variation_model

#: Placer kinds a spec may request (the request schema's vocabulary).
PLACERS = PLACER_KINDS

#: Symmetric styles that define the SOTA reference target.
SYMMETRIC_STYLES = ("ysym", "common_centroid")


@dataclass(frozen=True)
class RunSpec:
    """Everything one optimizer run depends on, as plain data.

    Attributes:
        key: caller-chosen merge key (e.g. ``("SA", seed)``); results are
            matched back to specs by this key, never by completion order.
        builder: the circuit, as data — a library key of
            :data:`~repro.service.registry.BUILDERS` or a
            :class:`~repro.service.registry.SpiceDeck` (deck text plus
            the keywords that build it).  Both forms have a JSON wire
            form, and the worker builds the block itself.
        builder_kwargs: keyword arguments for a library key's builder
            (a deck takes none), as a tuple of ``(name, value)`` pairs
            so the spec stays hashable.
        placer: ``"ql"`` (multi-level Q-learning), ``"flat"`` (single-
            table Q-learning) or ``"sa"`` (simulated annealing).
        seed: RNG seed for the placer.
        max_steps: optimizer step budget.
        target: explicit target cost, or ``None``.
        target_from_symmetric: compute the target inside the worker as
            the best symmetric-style cost (overrides ``target``).
        share_target_evaluator: when computing the target in-worker, use
            the *run's* evaluator (so the reference simulations share its
            cache and counters — the historical behavior of the scaling
            and linearity drivers) instead of a fresh one.
        batch: candidate placements each agent turn prices in one
            batched evaluation (1 = the classic per-move loop); the
            worker builds the environment with the evaluator's
            ``cost_many`` so the batch reaches the placement-batched
            compiled solver.
        epsilon_decay_frac: fraction of ``max_steps`` over which the
            Q-learning exploration rate decays.
        ql_worse_tolerance: ``worse_tolerance`` for the Q-learning
            placers (``None`` = the placer's default; ignored for SA).
        variation_kind: variation-field regime for the evaluator
            (``"nonlinear"``, ``"linear"``, ``"none"``); ``None`` uses
            the evaluator's calibrated default.
        variation_with_lde: include LDE neighbourhood effects when
            ``variation_kind`` is set.
        evaluate_best: also evaluate the best placement's full metrics
            inside the worker (one extra cached simulation).
        stop_at_target: end the run as soon as the target cost is met
            (island-training workers stop instead of burning the rest of
            their round budget).
        initial_tables: optional warm-start payload — an
            ``export_tables()`` snapshot (agent address → Q-table) the
            worker folds into its freshly built placer before
            optimizing.  Q-learning placers only; plain picklable data,
            excluded from the spec's hash.
        warm_start_how: :meth:`QTable.merge` rule for ``initial_tables``
            (the default ``"theirs"`` simply loads the snapshot into the
            cold agents).
        return_tables: ship the placer's learned Q-tables back on the
            outcome (``RunOutcome.tables``) so a driver can merge them
            into a master policy.  Q-learning placers only.
        objective_weights: preference weights conditioning the
            evaluator's cost composition, as sorted ``(name, value)``
            pairs so the spec stays hashable; ``()`` means the default
            vector (the historical scalar cost, bit for bit).
        exploration: agent exploration mode — ``"epsilon"`` or ``"ucb"``
            (Q-learning placers only).
    """

    key: Hashable
    builder: str | SpiceDeck
    placer: str = "ql"
    seed: int = 0
    max_steps: int = 400
    builder_kwargs: tuple[tuple[str, Any], ...] = ()
    target: float | None = None
    target_from_symmetric: bool = False
    share_target_evaluator: bool = False
    batch: int = 1
    epsilon_decay_frac: float = 0.6
    ql_worse_tolerance: float | None = None
    variation_kind: str | None = None
    variation_with_lde: bool = True
    evaluate_best: bool = True
    stop_at_target: bool = False
    initial_tables: Any = field(default=None, hash=False)
    warm_start_how: str = "theirs"
    return_tables: bool = False
    objective_weights: tuple[tuple[str, float], ...] = ()
    exploration: str = "epsilon"

    def __post_init__(self) -> None:
        if self.placer not in PLACERS:
            raise ValueError(f"unknown placer {self.placer!r}; expected {PLACERS}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        check_circuit(self.builder)
        if isinstance(self.builder, SpiceDeck) and self.builder_kwargs:
            raise ValueError("a SPICE deck builder takes no builder_kwargs")
        if not 0.0 < self.epsilon_decay_frac <= 1.0:
            raise ValueError("epsilon_decay_frac must be in (0, 1]")
        if self.warm_start_how not in MERGE_HOWS:
            raise ValueError(
                f"warm_start_how must be one of {MERGE_HOWS}, "
                f"got {self.warm_start_how!r}"
            )
        if self.placer == "sa" and (
            self.initial_tables is not None or self.return_tables
        ):
            raise ValueError(
                "initial_tables/return_tables need a Q-learning placer; "
                "SA has no tables to share"
            )
        object.__setattr__(
            self, "objective_weights",
            tuple(sorted(
                (str(k), float(v)) for k, v in self.objective_weights
            )),
        )
        # Validate eagerly so a bad weight vector fails at spec-build
        # time, not inside a worker process.
        ObjectiveWeights.from_mapping(dict(self.objective_weights))
        if self.exploration not in EXPLORATIONS:
            raise ValueError(
                f"exploration must be one of {EXPLORATIONS}, "
                f"got {self.exploration!r}"
            )
        if self.exploration == "ucb" and self.placer == "sa":
            raise ValueError("exploration='ucb' needs a Q-learning placer")

    def describe(self) -> str:
        """Human-readable identity: which circuit/placer/seed this is.

        Used to label worker failures and quarantine reports — a spec
        that dies mid-batch must name the run, not just an index.
        """
        circuit = (self.builder if isinstance(self.builder, str)
                   else self.builder.name)
        return (
            f"key={self.key!r} circuit={circuit!r} "
            f"placer={self.placer} seed={self.seed}"
        )

    # ----------------------------------------------------- request bridge

    @classmethod
    def from_request(
        cls,
        request: PlacementRequest,
        *,
        key: Hashable = "place",
        registry: CircuitRegistry | None = None,
        initial_tables: Any = None,
    ) -> "RunSpec":
        """Build the spec a :class:`PlacementRequest` describes.

        Specs and requests are two views of one schema: the spec is the
        in-process execution form, the request the JSON wire form.  The
        mapping reproduces ``repro place`` exactly — an omitted target
        means *derive it from the best symmetric layout inside the
        worker, sharing the run's evaluator* — so a served ``/place``
        job and the CLI produce bit-identical results.

        Args:
            request: the wire-form job description.
            key: merge key for the produced spec.
            registry: circuit registry that resolves ``request.circuit``
                (default: the shared one).
            initial_tables: resolved warm-start tables (the service
                resolves ``request.warm_policy`` against its policy
                store before building the spec).
        """
        if request.spice is not None:
            builder = request.deck()
        else:
            reg = registry if registry is not None else default_registry()
            builder = reg[request.circuit]
        return cls(
            key=key,
            builder=builder,
            placer=request.placer,
            seed=request.seed,
            max_steps=request.steps,
            target=request.target,
            target_from_symmetric=request.target is None,
            share_target_evaluator=request.target is None,
            batch=request.batch,
            epsilon_decay_frac=request.epsilon_decay_frac,
            ql_worse_tolerance=request.ql_worse_tolerance,
            stop_at_target=request.stop_at_target,
            initial_tables=initial_tables,
            warm_start_how=request.warm_start_how,
            objective_weights=tuple(sorted(request.objective.items())),
            exploration=request.exploration,
        )

    def to_request(self) -> PlacementRequest:
        """The :class:`PlacementRequest` view of this spec.

        A keyed spec becomes a ``circuit=`` request and a deck spec an
        inline-``spice`` one.  ``RunSpec.from_request(spec.to_request())``
        is the identity on the request-shaped spec family — the
        round-trip the service API relies on.

        Raises:
            ValueError: the spec carries behavior-bearing fields the
                request schema does not model (silently dropping them
                would make the wire form execute a *different* run).
        """
        outside = [
            name for name, off_schema in (
                ("builder_kwargs", bool(self.builder_kwargs)),
                ("variation_kind", self.variation_kind is not None),
                ("evaluate_best", not self.evaluate_best),
                ("return_tables", self.return_tables),
                ("initial_tables", self.initial_tables is not None),
            ) if off_schema
        ]
        if outside:
            raise ValueError(
                f"spec fields {outside} have no request-schema form; "
                "a converted request would execute a different run"
            )
        if isinstance(self.builder, str):
            circuit = {"circuit": self.builder}
        else:
            deck = self.builder
            circuit = dict(
                spice=deck.text, spice_kind=deck.kind, spice_name=deck.name,
                spice_canvas=deck.canvas, spice_inputs=deck.input_nets,
                spice_outputs=deck.output_nets, spice_params=deck.params,
            )
        return PlacementRequest(
            **circuit,
            placer=self.placer,
            steps=self.max_steps,
            seed=self.seed,
            batch=self.batch,
            target=None if self.target_from_symmetric else self.target,
            stop_at_target=self.stop_at_target,
            epsilon_decay_frac=self.epsilon_decay_frac,
            ql_worse_tolerance=self.ql_worse_tolerance,
            warm_start_how=self.warm_start_how,
            objective=dict(self.objective_weights),
            exploration=self.exploration,
        )


@dataclass
class RunOutcome:
    """What one executed :class:`RunSpec` produced.

    Attributes:
        key: the spec's merge key, echoed back.
        result: the placer's :class:`PlacerResult`.
        metrics: full metrics of the best placement (``None`` when the
            spec set ``evaluate_best=False``).
        target: the target cost the run chased (worker-computed when the
            spec asked for ``target_from_symmetric``).
        tables: the placer's learned Q-tables (an ``export_tables()``
            snapshot), present when the spec set ``return_tables``.
    """

    key: Hashable
    result: PlacerResult
    metrics: Metrics | None = None
    target: float | None = None
    tables: dict | None = None


def build_block(spec: RunSpec) -> AnalogBlock:
    """Materialise the spec's circuit block (inside the worker)."""
    return build_circuit(spec.builder, **dict(spec.builder_kwargs))


def _make_evaluator(spec: RunSpec, block: AnalogBlock) -> PlacementEvaluator:
    objective = (
        ObjectiveWeights.from_mapping(dict(spec.objective_weights))
        if spec.objective_weights else None
    )
    if spec.variation_kind is None:
        return PlacementEvaluator(block, objective=objective)
    tech = generic_tech_40()
    extent = max(block.canvas) * tech.grid_pitch
    variation = default_variation_model(
        canvas_extent=extent,
        kind=spec.variation_kind,
        with_lde=spec.variation_with_lde,
    )
    return PlacementEvaluator(
        block, tech=tech, variation=variation, objective=objective
    )


def _make_placer(spec: RunSpec, env: PlacementEnv, evaluator: PlacementEvaluator):
    # The sim_counter closure is created here, inside the worker, so it
    # never crosses a process boundary.
    counter = lambda: evaluator.sim_count  # noqa: E731
    if spec.placer == "sa":
        from repro.core.annealing import SimulatedAnnealingPlacer

        return SimulatedAnnealingPlacer(
            env, batch=spec.batch, seed=spec.seed, sim_counter=counter
        )
    epsilon = EpsilonSchedule(
        0.9, 0.05, max(1, int(spec.epsilon_decay_frac * spec.max_steps))
    )
    kwargs: dict[str, Any] = dict(
        epsilon=epsilon, batch=spec.batch, seed=spec.seed, sim_counter=counter,
        exploration=spec.exploration,
    )
    if spec.ql_worse_tolerance is not None:
        kwargs["worse_tolerance"] = spec.ql_worse_tolerance
    cls = MultiLevelPlacer if spec.placer == "ql" else FlatQPlacer
    return cls(env, **kwargs)


def symmetric_target(
    block: AnalogBlock, evaluator: PlacementEvaluator
) -> float:
    """Best symmetric-style cost — the SOTA reference target."""
    return min(
        evaluator.cost(banded_placement(block, style))
        for style in SYMMETRIC_STYLES
    )


def execute_run(spec: RunSpec) -> RunOutcome:
    """Worker entry point: reconstruct the run from its spec and do it.

    Module-level (hence picklable by reference) so a
    :class:`ProcessPoolBackend` can ship it, and the one function a
    cluster worker runs on a spec; everything stateful — the
    evaluator with its cache, the environment, the placer with its
    ``sim_counter`` closure — is created here, inside the worker.
    """
    block = build_block(spec)
    evaluator = _make_evaluator(spec, block)
    target = spec.target
    if spec.target_from_symmetric:
        reference = (
            evaluator
            if spec.share_target_evaluator
            else _make_evaluator(spec, block)
        )
        target = symmetric_target(block, reference)
    env = PlacementEnv(
        block, evaluator.cost, objective_many=evaluator.cost_many
    )
    placer = _make_placer(spec, env, evaluator)
    if spec.initial_tables is not None:
        placer.warm_start_from(spec.initial_tables, how=spec.warm_start_how)
    result = placer.optimize(
        max_steps=spec.max_steps, target=target,
        stop_at_target=spec.stop_at_target,
    )
    metrics = evaluator.evaluate(result.best_placement) if spec.evaluate_best else None
    tables = placer.export_tables() if spec.return_tables else None
    return RunOutcome(
        key=spec.key, result=result, metrics=metrics, target=target,
        tables=tables,
    )


def map_runs(
    specs: Sequence[RunSpec],
    backend: ExecutionBackend | None = None,
) -> list[RunOutcome]:
    """Execute specs on a backend; outcomes aligned with ``specs``.

    The deterministic-merge contract of the whole runtime: outcome ``i``
    belongs to spec ``i`` regardless of which worker finished first, so
    serial and parallel backends produce identical driver results.
    """
    backend = backend if backend is not None else SerialBackend()
    outcomes = backend.map(execute_run, list(specs))
    if len(outcomes) != len(specs):
        raise RuntimeError(
            f"backend returned {len(outcomes)} outcomes for {len(specs)} specs"
        )
    for spec, outcome in zip(specs, outcomes):
        if outcome.key != spec.key:
            raise RuntimeError(
                f"backend broke ordering: expected key {spec.key!r}, "
                f"got {outcome.key!r}"
            )
    return outcomes


def outcomes_by_key(outcomes: Sequence[RunOutcome]) -> dict[Hashable, RunOutcome]:
    """Index outcomes by their spec key (keys must be unique)."""
    indexed: dict[Hashable, RunOutcome] = {}
    for outcome in outcomes:
        if outcome.key in indexed:
            raise ValueError(f"duplicate run key {outcome.key!r}")
        indexed[outcome.key] = outcome
    return indexed
