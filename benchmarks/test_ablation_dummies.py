"""Ablation D — dummy insertion vs objective-driven placement (§I).

Backs the paper's motivation sentence: dummies "can double circuit area
and introduce additional parasitics.  Moreover, even with dummies included
in a perfectly symmetric layout, non-linear variations may not cancel."

Measured here: the dummy halo inflates the bounding box by tens of
percent, moves the mismatch/offset *unpredictably* (it equalises LOD
stress but cannot touch the non-linear field), and the Q-learning
placement beats both recipes by a large factor at no area overhead.
"""

import pytest

from repro.experiments import format_dummies, run_dummy_ablation


@pytest.mark.benchmark(group="ablation")
@pytest.mark.parametrize("circuit", ["cm", "comp"])
def test_dummies_vs_objective_driven(benchmark, circuit):
    ablation = benchmark.pedantic(
        run_dummy_ablation, args=(circuit,),
        kwargs={"max_steps": 350, "seed": 1}, rounds=1, iterations=1,
    )
    print("\n" + format_dummies(ablation))

    sym = ablation.rows["symmetric"]
    dum = ablation.rows["symmetric+dummies"]
    ql = ablation.rows["q-learning"]
    benchmark.extra_info.update({
        "sym_primary": sym["primary"],
        "dummies_primary": dum["primary"],
        "ql_primary": ql["primary"],
        "dummy_area_overhead": dum["area_overhead"],
    })

    # "can double circuit area": the halo costs significant bounding box.
    assert dum["area_overhead"] >= 0.20
    assert dum["area_um2"] > sym["area_um2"]
    # "non-linear variations may not cancel": dummies do NOT reliably fix
    # mismatch — they land within a factor ~2 of the bare layout rather
    # than anywhere near the optimized one.
    assert dum["primary"] > 5 * ql["primary"]
    # Objective-driven placement beats both traditional recipes big...
    assert ql["primary"] < sym["primary"] / 5
    assert ql["primary"] < dum["primary"] / 5
    # ...at comparable area (the mild cost-side area term keeps the
    # unconventional layout within ~25 % of even the dummied footprint).
    assert ql["area_um2"] <= 1.25 * dum["area_um2"]
