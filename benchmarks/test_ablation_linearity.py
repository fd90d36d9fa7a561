"""Ablation C — the premise: symmetry cancels linear variation only.

Backs the paper's Section I argument (and its reference [1], McAndrew
TCAD'17): under a *purely linear* systematic field the classic symmetric
layout is already (near-)optimal, so objective-driven placement buys
little; under the realistic non-linear field (+ LDEs) the symmetric
cancellation fails and unconventional placement wins by a large factor.
"""

import pytest

from repro.experiments import format_linearity, run_linearity_ablation


@pytest.mark.benchmark(group="ablation")
def test_linearity_premise_cm(benchmark):
    ablation = benchmark.pedantic(
        run_linearity_ablation, args=("cm",),
        kwargs={"max_steps": 300, "seed": 1}, rounds=1, iterations=1,
    )
    print("\n" + format_linearity(ablation))
    benchmark.extra_info.update({
        "linear_gain": ablation.gain("linear"),
        "nonlinear_gain": ablation.gain("nonlinear"),
        "linear_symmetric": ablation.regimes["linear"]["symmetric"],
        "nonlinear_symmetric": ablation.regimes["nonlinear"]["symmetric"],
    })

    # Under the linear field, common-centroid cancellation leaves almost
    # nothing on the table (gain within 2x of nothing)...
    assert ablation.gain("linear") < 2.0
    # ...under the non-linear field, unconventional placement wins big.
    assert ablation.gain("nonlinear") > 5.0
    # And the symmetric layout itself is an order of magnitude worse off
    # under the non-linear field than the linear one.
    assert (ablation.regimes["nonlinear"]["symmetric"]
            > 10.0 * ablation.regimes["linear"]["symmetric"])
