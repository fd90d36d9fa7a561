"""Ablation B — Q-learning vs SA convergence trajectories.

Backs the paper's Section III narrative: Q-learning descends faster early
(it learns which moves pay off and exploits them), while SA relies on
slowly cooled random search.  The traces printed here are the data behind
the "# simulations" column of Fig. 3.
"""

import pytest

from repro.experiments import format_convergence, run_convergence_ablation


@pytest.mark.benchmark(group="ablation")
def test_convergence_traces_cm(benchmark):
    ablation = benchmark.pedantic(
        run_convergence_ablation, args=("cm",),
        kwargs={"max_steps": 500, "seed": 1}, rounds=1, iterations=1,
    )
    print("\n" + format_convergence(ablation))

    ql_to_70 = ablation.ql_sims_to(0.70)
    sa_to_70 = ablation.sa_sims_to(0.70)
    benchmark.extra_info.update({
        "ql_sims_to_70pct": ql_to_70,
        "sa_sims_to_70pct": sa_to_70,
        "ql_final": ablation.ql_best,
        "sa_final": ablation.sa_best,
    })

    # The Fig. 3 "# simulations" story: QL needs no more evaluations than
    # SA to take the first big chunk out of the objective (reaching 70 %
    # of the initial cost) — it exploits learned moves immediately, while
    # SA is still hot and accepting bad moves.
    assert ql_to_70 is not None
    assert sa_to_70 is None or ql_to_70 <= sa_to_70
    # Both end far below the start.
    initial = ablation.ql_history[0][1]
    assert ablation.ql_best < 0.1 * initial
    assert ablation.sa_best < 0.1 * initial
