"""Workload inputs: the fixed placement pools and the seeded orderings.

Every workload draws from a fixed pool of placement requests, so the
correctness reference (``reference.json``) can hold one entry per
request.  The workload seed only decides the order (and, on
``serve_mixed``, which earlier requests are repeated); the program sees
only the generated requests.

A request is a plain dict: registry-keyed ``{"circuit", "steps", "seed",
"batch"}`` or an inline deck ``{"deck", "steps", "seed"}``, where
``deck`` names a file of the bundled ``corpus/`` whose text is sent as
inline SPICE.  :func:`key` names a request in the reference.
"""

from __future__ import annotations

import math
import random

#: Seconds one untraced run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 32
#: Open-loop send rate of ``serve_mixed`` in requests per second: about
#: 40% of the 7.8-8.2 jobs/s that ``repro serve`` (2 job workers, serial
#: backend) completes for this request mix in a closed loop of 2-4
#: clients on a 2-core Xeon host.  A run sends ``rate * seconds`` > 100
#: requests, so its 90th percentile has at least ten samples beyond it.
#: Near saturation the latency of a run follows the host's speed, which
#: drifts by 10-50% over minutes there; at 40% it stays within ~7%.
SERVE_RATE = 3.2
#: Seconds between ``/metrics`` scrapes on ``serve_mixed``.
SCRAPE_INTERVAL_S = 1.0
#: Every ``REPEAT_EVERY``-th served request repeats an earlier one.
REPEAT_EVERY = 4
#: A repeat copies a request sent at least this many positions earlier,
#: so the original has normally finished and the repeat is a cache read.
REPEAT_GAP = 8

SIZES = ("full", "tiny")

_SERVE_CIRCUITS = ("cm", "ota5t", "ota2s")
_SERVE_DECKS = (
    "bias_ratioed", "comp_strongarm", "mirror_cascode", "mirror_degen",
    "mirror_tree", "mirror_wide", "ota_5t_pmos", "ota_5t_wide",
    "ota_folded_cascode", "ota_two_stage", "sf_resistive",
)


def key(request: dict) -> str:
    """Stable reference key of a request."""
    what = request.get("circuit") or f"deck:{request['deck']}"
    return (f"{what}/n{request['steps']}/s{request['seed']}"
            f"/b{request.get('batch', 1)}")


def group(request: dict) -> str:
    """What a request's wall time depends on: circuit and batch width."""
    what = request.get("circuit") or request["deck"]
    batch = request.get("batch", 1)
    return what if batch == 1 else f"{what}/b{batch}"


def _registry(circuit: str, steps: int, seed: int, batch: int = 1) -> dict:
    return {"circuit": circuit, "steps": steps, "seed": seed, "batch": batch}


def cli_pool(size: str) -> list[dict]:
    """``cli_place``: cold 1000-step CLI placements of cm and ota2s."""
    if size == "tiny":
        return [_registry("cm", 40, 1)]
    return [_registry(c, 1000, s) for c in ("cm", "ota2s") for s in (1, 2, 3, 4)]


def sim_pool(size: str) -> list[dict]:
    """``sim_place``: in-process placements where simulation dominates."""
    if size == "tiny":
        return [_registry("comp", 40, 1), _registry("ota2s", 10, 1, batch=8)]
    return [
        *(_registry("comp", 1000, s) for s in (1, 2)),
        *(_registry("mirror_tree", 1000, s) for s in (1, 2)),
        *(_registry("ota2s", 1000, s, batch=8) for s in (1, 2)),
    ]


def serve_design(size: str) -> tuple[float, float]:
    """``(rate, seconds)`` the served pool is sized for."""
    return (SERVE_RATE, RUN_SECONDS) if size == "full" else (4.0, 3.0)


def serve_pool(size: str) -> list[dict]:
    """``serve_mixed`` fresh requests: two thirds registry-keyed 50-step
    placements, one third inline corpus decks.

    Sized so a run at the design rate and length sends each once; the
    remaining quarter of a run's requests are repeats.
    """
    rate, seconds = serve_design(size)
    steps = 50 if size == "full" else 20
    fresh = math.ceil(rate * seconds * (REPEAT_EVERY - 1) / REPEAT_EVERY)
    n_decks = fresh // 3
    registry = [
        _registry(_SERVE_CIRCUITS[i % 3], steps, 1 + i // 3)
        for i in range(fresh - n_decks)
    ]
    decks = [
        {"deck": _SERVE_DECKS[i % len(_SERVE_DECKS)], "steps": steps,
         "seed": 1 + i // len(_SERVE_DECKS)}
        for i in range(n_decks)
    ]
    return registry + decks


def ordered(pool: list[dict], seed: int) -> list[dict]:
    """The pool in the order the workload seed gives."""
    out = list(pool)
    random.Random(seed).shuffle(out)
    return out


def interleaved(pool: list[dict], seed: int) -> list[dict]:
    """The pool with each kind of request (circuit, or any deck) spread
    evenly over the sequence; the seed orders the placement seeds within
    each circuit, and decks keep their pool order.

    Requests of one circuit cost about the same, so every seed gives the
    server the same rhythm of cheap and dear work, and runs with
    different seeds differ by noise rather than by bursts.
    """
    kinds: dict[str, list[dict]] = {}
    for request in pool:
        kinds.setdefault(request.get("circuit", "deck"), []).append(request)
    rng = random.Random(seed)
    slots = []
    for order, (kind, members) in enumerate(kinds.items()):
        if kind != "deck":
            rng.shuffle(members)
        slots += [((j + 0.5) / len(members), order, request)
                  for j, request in enumerate(members)]
    return [request for __, __, request in sorted(
        slots, key=lambda slot: slot[:2])]


def serve_schedule(seed: int, seconds: float, size: str) -> list[dict]:
    """The requests ``serve_mixed`` sends, one per ``1/rate`` seconds.

    Fresh requests come in :func:`interleaved` order.  Every
    :data:`REPEAT_EVERY`-th request repeats a seeded choice among the
    requests sent at least :data:`REPEAT_GAP` positions earlier (a fresh
    request while there are none yet); once the fresh pool is used up,
    every request is a repeat.
    """
    rate, __ = serve_design(size)
    rng = random.Random(seed)
    fresh = interleaved(serve_pool(size), seed)
    sent: list[dict] = []
    for i in range(max(1, round(rate * seconds))):
        earlier = sent[:max(0, len(sent) - REPEAT_GAP + 1)]
        repeat = (i % REPEAT_EVERY == REPEAT_EVERY - 1 or not fresh)
        if repeat and earlier:
            sent.append(rng.choice(earlier))
        else:
            sent.append(fresh.pop(0) if fresh else rng.choice(sent))
    return sent


def pools(size: str) -> dict[str, list[dict]]:
    """Every request a workload of this size can issue, per workload."""
    return {
        "cli_place": cli_pool(size),
        "sim_place": sim_pool(size),
        "serve_mixed": serve_pool(size),
    }
