"""Ablation A — multi-level multi-agent vs flat Q-learning (scalability).

Backs the paper's Section II-A claim that the hierarchy addresses
Q-table growth: at equal budget the flat single-table agent's state count
explodes combinatorially with circuit size while the hierarchical tables
stay compact, and placement quality does not suffer for it.
"""

import pytest

from repro.experiments import format_hierarchy, run_hierarchy_ablation


@pytest.mark.benchmark(group="ablation")
def test_hierarchy_vs_flat_cm(benchmark):
    ablation = benchmark.pedantic(
        run_hierarchy_ablation, args=("cm",),
        kwargs={"max_steps": 400, "seed": 1}, rounds=1, iterations=1,
    )
    print("\n" + format_hierarchy(ablation))
    benchmark.extra_info.update({
        "multi_entries": ablation.multi_table_entries,
        "flat_entries": ablation.flat_table_entries,
        "multi_best": ablation.multi_best,
        "flat_best": ablation.flat_best,
    })
    # On a circuit this small the flat agent still works — the hierarchy's
    # measurable win is state-space compactness, not raw quality.  Check:
    # both reach the symmetric target...
    assert ablation.multi_sims_to_target is not None
    assert ablation.flat_sims_to_target is not None
    # ...the multi-level placer lands far below it...
    assert ablation.multi_best < 0.1  # symmetric is ~2.4 % mismatch
    # ...and its top-level state space is several times smaller (the flat
    # agent re-keys the entire placement, so almost every state is new).
    assert ablation.flat_states >= 2 * ablation.multi_states


@pytest.mark.benchmark(group="ablation")
def test_table_growth_with_circuit_size(benchmark):
    """The scalability trend itself: growing the circuit grows the flat
    state space much faster than the hierarchical one."""

    def measure():
        out = {}
        for name, circuit in (("CM", "cm"), ("OTA", "ota")):
            ablation = run_hierarchy_ablation(circuit, max_steps=250, seed=1)
            out[name] = (ablation.multi_table_entries, ablation.flat_table_entries,
                         ablation.multi_states, ablation.flat_states)
        return out

    sizes = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name, (multi_e, flat_e, multi_s, flat_s) in sizes.items():
        print(f"{name}: multi entries={multi_e} states(top)={multi_s} | "
              f"flat entries={flat_e} states={flat_s}")
    benchmark.extra_info["sizes"] = {
        k: {"multi": v[0], "flat": v[1]} for k, v in sizes.items()
    }
    # The flat agent re-keys the whole placement per state: its state
    # count matches its step count (every state is fresh).  The top-level
    # hierarchical table revisits states across episodes on both circuits.
    for name, (__, __f, multi_s, flat_s) in sizes.items():
        assert flat_s >= multi_s, name
