"""Typed, JSON-serializable request/result schemas for placement work.

This is the single wire format every entry point now speaks:

* :class:`PlacementRequest` — one placement-optimisation job (``repro
  place``, the ``/place`` endpoint, one leg of an experiment);
* :class:`TrainRequest` — one island-model training campaign (``repro
  train``, ``/train``);
* :class:`PlacementResult` — the one result shape a
  :class:`~repro.runtime.spec.RunOutcome` and a
  :class:`~repro.train.campaign.CampaignResult` both normalize into.

Schemas are versioned (:data:`SCHEMA_VERSION`): payloads carry their
version, readers accept anything up to the current one and reject newer
payloads loudly instead of mis-parsing them.  ``to_json_dict`` output is
already JSON-plain (lists, not tuples), so a dict that went through
``json.dumps``/``loads`` compares equal to a freshly built one — the
property the bit-identical CLI-vs-HTTP tests rely on.

Layering note: this module sits *below* :mod:`repro.runtime.spec` (specs
convert to/from requests via ``RunSpec.from_request``/``to_request``),
so it must not import the runtime; the placer-kind and merge-rule
vocabularies live here and in :mod:`repro.core.qlearning` respectively.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterable, Mapping

from repro.core.qlearning import EXPLORATIONS, MERGE_HOWS
from repro.eval.metrics import Metrics
from repro.eval.objective import ObjectiveWeights
from repro.layout.placement import CanvasSpec, Placement
from repro.service.registry import SpiceDeck

#: Version of the request/result wire schemas written by this build.
SCHEMA_VERSION = 1

#: Placer kinds a request may ask for (the runtime's spec vocabulary).
PLACER_KINDS = ("ql", "flat", "sa")

#: Placer kinds that can train/share policies (SA has no tables).
TRAINABLE_PLACER_KINDS = ("ql", "flat")

#: ``warm_policy`` sentinel: let the zoo index pick the warm start.
WARM_AUTO = "auto"

#: Options a request's ``zoo`` mapping may carry (warm-auto tuning).
ZOO_KEYS = ("min_tier", "max_sources")

#: Zoo match tiers (mirrors :data:`repro.zoo.signature.MATCH_TIERS`,
#: restated here so the wire schema never imports the zoo subsystem).
ZOO_TIERS = ("exact", "coarse")


def _check_schema_version(data: Mapping[str, Any], what: str) -> None:
    version = int(data.get("schema_version", 1))
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"{what} has schema version {version}; this build reads "
            f"<= {SCHEMA_VERSION}"
        )


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: Scalar field kinds a request schema declares: kind -> (what the error
#: message asks for, predicate).  ``"int"`` is handled separately because
#: it also normalises the value.
_FIELD_KINDS = {
    "real": ("a number", _is_real),
    "real?": ("a number or null", lambda v: v is None or _is_real(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str?": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "map": ("an object", lambda v: isinstance(v, Mapping)),
}


def _check_types(request, kinds: Mapping[str, str]) -> None:
    """Type-check a request's scalar fields, naming the first bad one.

    Integer fields must be ``operator.index``-able and are normalised to
    ``int`` in place; ``bool`` is rejected wherever a number is expected
    (JSON ``true`` must not run a 1-step job).

    Raises:
        TypeError: a field holds the wrong type.
    """
    for name, kind in kinds.items():
        value = getattr(request, name)
        if kind == "int":
            want = "an integer"
            if not isinstance(value, bool):
                try:
                    object.__setattr__(request, name, operator.index(value))
                    continue
                except TypeError:
                    pass
        else:
            want, ok = _FIELD_KINDS[kind]
            if ok(value):
                continue
        raise TypeError(f"{name} must be {want}, got {value!r}")


def _from_json(cls, data: Mapping[str, Any]):
    """Shared ``from_json_dict``: validate version, reject unknown keys."""
    _check_schema_version(data, cls.__name__)
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"{cls.__name__} does not understand keys {sorted(unknown)}"
        )
    kwargs = dict(data)
    kwargs["schema_version"] = SCHEMA_VERSION
    return cls(**kwargs)


@dataclass(frozen=True)
class PlacementRequest:
    """Everything one placement-optimisation job depends on.

    Exactly one of ``circuit`` (a registry key) or ``spice`` (an inline
    deck) names the circuit.  The defaults reproduce ``repro place``:
    Q-learning, symmetric-derived target, full budget.

    Attributes:
        circuit: circuit-registry key (``"cm"``, ``"ota2s"``, ...).
        spice: inline SPICE deck, for circuits the registry doesn't know.
        spice_kind: measurement suite for inline decks.
        spice_name: display name for inline decks.
        spice_canvas: explicit ``(cols, rows)`` grid for inline decks
            (``None`` auto-sizes).
        spice_inputs: signal input nets of an inline deck (signal-flow
            ordering needs at least one).
        spice_outputs: signal output nets of an inline deck.
        spice_params: measurement parameters for the inline deck's suite
            (e.g. ``{"iref": 2e-5, "vdd": 1.1, "probe_sources": [...]}``
            for ``"cm"`` — see the library builders for each kind's
            expectations).
        placer: ``"ql"``, ``"flat"`` or ``"sa"``.
        steps: optimizer step budget.
        seed: RNG seed.
        batch: candidate placements priced per agent turn.
        target: explicit target cost; ``None`` derives it from the best
            symmetric layout (the paper's SOTA reference).
        stop_at_target: end the run as soon as the target is met.
        epsilon_decay_frac: exploration-decay horizon (fraction of
            ``steps``); Q-learning placers only.
        ql_worse_tolerance: move-acceptance tolerance (``None`` = placer
            default); Q-learning placers only.
        warm_policy: policy-store reference (``"name"`` = latest version,
            ``"name@3"`` = pinned) whose tables warm-start the placer, or
            ``"auto"`` to let the zoo index assemble a composite warm
            start by signature matching.
        warm_start_how: :meth:`QTable.merge` rule for the warm start.
        zoo: options for the ``"auto"`` warm start — ``min_tier``
            (``"exact"``/``"coarse"``) and ``max_sources`` (policies
            folded per group); only legal with ``warm_policy="auto"``.
        objective: preference weights over the cost composition
            (``matching``/``area``/``noise``/``parasitics`` — see
            :class:`repro.eval.objective.ObjectiveWeights`); the empty
            default reproduces the historical scalar cost bit for bit.
        exploration: ``"epsilon"`` (the paper's decaying schedule) or
            ``"ucb"`` (deterministic visit-aware bonus — the natural
            pairing with a warm-started table); Q-learning placers only.
        schema_version: wire-format version, stamped automatically.
    """

    circuit: str | None = None
    spice: str | None = None
    spice_kind: str = "cm"
    spice_name: str = "imported"
    spice_canvas: tuple[int, int] | None = None
    spice_inputs: tuple[str, ...] = ()
    spice_outputs: tuple[str, ...] = ()
    spice_params: Mapping[str, Any] = field(default_factory=dict)
    placer: str = "ql"
    steps: int = 400
    seed: int = 1
    batch: int = 1
    target: float | None = None
    stop_at_target: bool = False
    epsilon_decay_frac: float = 0.6
    ql_worse_tolerance: float | None = None
    warm_policy: str | None = None
    warm_start_how: str = "theirs"
    zoo: Mapping[str, Any] = field(default_factory=dict)
    objective: Mapping[str, float] = field(default_factory=dict)
    exploration: str = "epsilon"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_types(self, {
            "circuit": "str?", "spice": "str?", "spice_kind": "str",
            "spice_name": "str", "placer": "str", "steps": "int",
            "seed": "int", "batch": "int", "target": "real?",
            "stop_at_target": "bool", "epsilon_decay_frac": "real",
            "ql_worse_tolerance": "real?", "warm_policy": "str?",
            "warm_start_how": "str", "exploration": "str",
            "spice_params": "map", "zoo": "map", "objective": "map",
            "schema_version": "int",
        })
        # Normalise sequence-typed fields so a request built with lists
        # (e.g. straight from JSON) equals one built with tuples.
        for name in ("spice_canvas", "spice_inputs", "spice_outputs"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise TypeError(f"{name} must be a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        object.__setattr__(self, "spice_params", dict(self.spice_params))
        object.__setattr__(self, "zoo", dict(self.zoo))
        for key, value in self.objective.items():
            if not _is_real(value):
                raise TypeError(
                    f"objective weight {key!r} must be a number, "
                    f"got {value!r}")
        object.__setattr__(
            self, "objective",
            {key: float(value) for key, value in self.objective.items()},
        )
        if (self.circuit is None) == (self.spice is None):
            raise ValueError(
                "exactly one of circuit= (registry key) or spice= "
                "(inline deck) must be given"
            )
        if self.placer not in PLACER_KINDS:
            raise ValueError(
                f"placer must be one of {PLACER_KINDS}, got {self.placer!r}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not 0.0 < self.epsilon_decay_frac <= 1.0:
            raise ValueError("epsilon_decay_frac must be in (0, 1]")
        if self.warm_start_how not in MERGE_HOWS:
            raise ValueError(
                f"warm_start_how must be one of {MERGE_HOWS}, "
                f"got {self.warm_start_how!r}"
            )
        if self.warm_policy is not None and self.placer == "sa":
            raise ValueError("warm_policy needs a Q-learning placer")
        if self.zoo and self.warm_policy != WARM_AUTO:
            raise ValueError(
                "zoo options are only meaningful with warm_policy='auto'"
            )
        unknown_zoo = set(self.zoo) - set(ZOO_KEYS)
        if unknown_zoo:
            raise ValueError(
                f"unknown zoo options {sorted(unknown_zoo)}; "
                f"valid keys: {list(ZOO_KEYS)}"
            )
        if "min_tier" in self.zoo and self.zoo["min_tier"] not in ZOO_TIERS:
            raise ValueError(
                f"zoo min_tier must be one of {ZOO_TIERS}, "
                f"got {self.zoo['min_tier']!r}"
            )
        if "max_sources" in self.zoo:
            if (not isinstance(self.zoo["max_sources"], int)
                    or isinstance(self.zoo["max_sources"], bool)
                    or self.zoo["max_sources"] < 1):
                raise ValueError(
                    "zoo max_sources must be an integer >= 1, "
                    f"got {self.zoo['max_sources']!r}"
                )
        # Validate eagerly: a bad weight should 400 at submission, not
        # fail the job at execution time.
        ObjectiveWeights.from_mapping(self.objective)
        if self.exploration not in EXPLORATIONS:
            raise ValueError(
                f"exploration must be one of {EXPLORATIONS}, "
                f"got {self.exploration!r}"
            )
        if self.exploration == "ucb" and self.placer == "sa":
            raise ValueError("exploration='ucb' needs a Q-learning placer")

    @property
    def circuit_label(self) -> str:
        """Display name of the requested circuit."""
        return self.circuit if self.circuit else f"spice:{self.spice_name}"

    def deck(self) -> SpiceDeck:
        """The inline deck as a :class:`~repro.service.registry.SpiceDeck`
        — the one mapping every inline-SPICE call site shares."""
        return SpiceDeck(
            self.spice,
            kind=self.spice_kind,
            name=self.spice_name,
            canvas=self.spice_canvas,
            params=self.spice_params,
            input_nets=self.spice_inputs,
            output_nets=self.spice_outputs,
        )

    def to_json_dict(self) -> dict:
        data = asdict(self)
        for key in ("spice_canvas", "spice_inputs", "spice_outputs"):
            if data[key] is not None:
                data[key] = list(data[key])
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "PlacementRequest":
        return _from_json(cls, data)


@dataclass(frozen=True)
class TrainRequest:
    """One island-model training campaign, as plain data.

    Attributes:
        circuit: circuit-registry key.
        workers: islands per synchronisation round.
        rounds: synchronisation rounds.
        steps: optimizer steps per worker per round.
        placer: ``"ql"`` or ``"flat"``.
        merge_how: Q-table conflict rule for folding worker tables into
            the master policy (``"visits"`` = visit-count-weighted).
        seed: base RNG seed.
        batch: candidate placements priced per agent turn.
        target: explicit target cost; ``None`` derives the symmetric one.
        target_scale: multiplier on the symmetric-derived target —
            values below 1.0 make the target *harder*, exposing
            multi-round policy compounding.
        stop_at_target: stop scheduling rounds once the target is met.
        warm_policy: policy-store reference to warm-start the master.
        save_policy: policy-store name to snapshot the final master
            under (a new version is written; pruning below applies).
        prune_min_visits: drop master entries with fewer visits before
            the snapshot.
        prune_min_abs_q: drop master entries with ``|Q|`` below this
            before the snapshot.
        schema_version: wire-format version, stamped automatically.
    """

    circuit: str | None = None
    workers: int = 4
    rounds: int = 3
    steps: int = 150
    placer: str = "ql"
    merge_how: str = "max"
    seed: int = 0
    batch: int = 1
    target: float | None = None
    target_scale: float = 1.0
    stop_at_target: bool = True
    warm_policy: str | None = None
    save_policy: str | None = None
    prune_min_visits: int = 0
    prune_min_abs_q: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_types(self, {
            "circuit": "str?", "workers": "int", "rounds": "int",
            "steps": "int", "placer": "str", "merge_how": "str",
            "seed": "int", "batch": "int", "target": "real?",
            "target_scale": "real", "stop_at_target": "bool",
            "warm_policy": "str?", "save_policy": "str?",
            "prune_min_visits": "int", "prune_min_abs_q": "real",
            "schema_version": "int",
        })
        if not self.circuit:
            raise ValueError("a train request needs a circuit= registry key")
        if self.placer not in TRAINABLE_PLACER_KINDS:
            raise ValueError(
                f"placer must be one of {TRAINABLE_PLACER_KINDS} (SA has "
                f"no Q-tables to share), got {self.placer!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.merge_how not in MERGE_HOWS:
            raise ValueError(
                f"merge_how must be one of {MERGE_HOWS}, got {self.merge_how!r}"
            )
        if self.target_scale <= 0:
            raise ValueError(
                f"target_scale must be positive, got {self.target_scale}"
            )
        if self.prune_min_visits < 0 or self.prune_min_abs_q < 0:
            raise ValueError("prune thresholds must be >= 0")

    @property
    def circuit_label(self) -> str:
        return self.circuit

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "TrainRequest":
        return _from_json(cls, data)


# ---------------------------------------------------------------- results


def placement_to_dict(placement: Placement) -> dict:
    """JSON-plain form of a placement: canvas + sorted unit cells."""
    return {
        "canvas": [placement.canvas.cols, placement.canvas.rows],
        "units": sorted(
            [device, int(k), int(c), int(r)]
            for (device, k), (c, r) in (
                (unit, placement.cell_of(unit)) for unit in placement.units
            )
        ),
    }


def placement_from_dict(data: Mapping[str, Any]) -> Placement:
    """Rebuild a :class:`Placement` from :func:`placement_to_dict` output."""
    cols, rows = data["canvas"]
    placement = Placement(CanvasSpec(int(cols), int(rows)))
    for device, k, c, r in data["units"]:
        placement.place((str(device), int(k)), (int(c), int(r)))
    return placement


def metrics_to_dict(metrics: Metrics | None) -> dict | None:
    """JSON-plain form of a :class:`Metrics` (or ``None``)."""
    if metrics is None:
        return None
    return {
        "kind": metrics.kind,
        "primary": metrics.primary,
        "values": {k: float(v) for k, v in metrics.values.items()},
    }


def metrics_from_dict(data: Mapping[str, Any] | None) -> Metrics | None:
    if data is None:
        return None
    return Metrics(kind=data["kind"], primary=data["primary"],
                   values=dict(data["values"]))


@dataclass
class PlacementResult:
    """The one result shape every placement entry point produces.

    ``RunOutcome`` (single runs) and ``CampaignResult`` (training)
    normalize into this via the ``from_*`` constructors;
    the CLI renders it, the HTTP layer serialises it, and two entry
    points given the same request produce *equal* ``to_json_dict()``
    payloads — the serving contract.

    Attributes:
        kind: producing entry point — ``"place"`` or ``"train"``.
        circuit: circuit label.
        placer: placer kind.
        seed: base RNG seed of the run.
        steps: step budget (per worker per round for campaigns).
        batch: agent-turn batch size.
        best_cost: best objective reached.
        initial_cost: objective of the starting placement.
        target: target cost chased (``None`` = none).
        reached_target: whether the target was met.
        sims_used: simulator evaluations consumed.
        sims_to_target: evaluations when the target was first met.
        history: ``[sims, best_cost_so_far]`` convergence samples.
        placement: the best placement (:func:`placement_to_dict` form).
        metrics: full metrics of the best placement (``None`` when not
            evaluated).
        policy: policy-store reference written by the job (train only).
        params: entry-point extras (workers/rounds/merge stats/...).
        schema_version: wire-format version.
        detail: the producing driver object (``RunOutcome`` /
            ``CampaignResult`` / ``Fig3Result``) for in-process callers;
            never serialised.
    """

    kind: str
    circuit: str
    placer: str
    seed: int
    steps: int
    batch: int
    best_cost: float
    initial_cost: float | None
    target: float | None
    reached_target: bool
    sims_used: int
    sims_to_target: int | None
    history: list = field(default_factory=list)
    placement: dict = field(default_factory=dict)
    metrics: dict | None = None
    policy: str | None = None
    params: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    detail: Any = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------ runtime

    def placement_object(self) -> Placement:
        """The best placement as a live :class:`Placement`."""
        return placement_from_dict(self.placement)

    def metrics_object(self) -> Metrics | None:
        """The metrics as a live :class:`Metrics` (``None`` if absent)."""
        return metrics_from_dict(self.metrics)

    # --------------------------------------------------------------- wire

    def to_json_dict(self) -> dict:
        # Not asdict(): that would deep-convert the (possibly large)
        # never-serialized ``detail`` driver object just to drop it —
        # and job-status polling calls this on a hot path.
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "detail"
        }
        data["history"] = [[int(s), float(c)] for s, c in self.history]
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "PlacementResult":
        _check_schema_version(data, cls.__name__)
        known = {f.name for f in fields(cls)} - {"detail"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"PlacementResult does not understand keys {sorted(unknown)}"
            )
        kwargs = dict(data)
        kwargs["schema_version"] = int(data.get("schema_version", 1))
        return cls(**kwargs)

    # ------------------------------------------------------- constructors

    @classmethod
    def from_outcome(cls, request: PlacementRequest, outcome) -> "PlacementResult":
        """Normalize a :class:`~repro.runtime.spec.RunOutcome`."""
        r = outcome.result
        return cls(
            kind="place",
            circuit=request.circuit_label,
            placer=request.placer,
            seed=request.seed,
            steps=request.steps,
            batch=request.batch,
            best_cost=float(r.best_cost),
            initial_cost=float(r.initial_cost),
            target=None if outcome.target is None else float(outcome.target),
            reached_target=bool(r.reached_target),
            sims_used=int(r.sims_used),
            sims_to_target=(
                None if r.sims_to_target is None else int(r.sims_to_target)
            ),
            history=[[int(s), float(c)] for s, c in r.history],
            placement=placement_to_dict(r.best_placement),
            metrics=metrics_to_dict(outcome.metrics),
            params={"steps_taken": int(r.steps)},
            detail=outcome,
        )

    @classmethod
    def from_campaign(
        cls,
        request: TrainRequest,
        campaign,
        *,
        metrics: Metrics | None = None,
        policy: str | None = None,
    ) -> "PlacementResult":
        """Normalize a :class:`~repro.train.campaign.CampaignResult`."""
        return cls(
            kind="train",
            circuit=request.circuit_label,
            placer=request.placer,
            seed=request.seed,
            steps=request.steps,
            batch=request.batch,
            best_cost=float(campaign.best_cost),
            initial_cost=float(campaign.initial_cost),
            target=(
                None if campaign.target is None else float(campaign.target)
            ),
            reached_target=campaign.reached_target,
            sims_used=int(campaign.total_sims),
            sims_to_target=(
                None if campaign.sims_to_target is None
                else int(campaign.sims_to_target)
            ),
            history=[[int(s), float(c)] for s, c in campaign.history],
            placement=placement_to_dict(campaign.best_placement),
            metrics=metrics_to_dict(metrics),
            policy=policy,
            params={
                "workers": campaign.workers,
                "rounds_planned": campaign.rounds_planned,
                "rounds_run": campaign.rounds_run,
                "merge_how": campaign.merge_how,
                "target_scale": float(request.target_scale),
                "master_entries": campaign.master_entries,
            },
            detail=campaign,
        )


def canonical_request_json(request: Any) -> str:
    """The canonical serialisation of a request: sorted keys, no spaces.

    Two requests have the same canonical JSON iff ``to_json_dict()``
    would compare equal — which, for the frozen request dataclasses, is
    iff the requests themselves are equal.  This string (not the object
    identity) is what dedup and the journal key on.
    """
    return json.dumps(
        request.to_json_dict(), sort_keys=True, separators=(",", ":")
    )


def canonical_request_hash(request: Any) -> str:
    """sha256 of :func:`canonical_request_json` — the dedup identity."""
    digest = hashlib.sha256(canonical_request_json(request).encode("utf-8"))
    return digest.hexdigest()
