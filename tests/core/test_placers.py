"""Integration tests for all placers on a cheap geometric objective.

Using wirelength/area objectives (no simulator) keeps these tests fast
while exercising the full optimization machinery; simulator-in-the-loop
runs are covered by tests/experiments and the benchmarks.
"""

import pytest

from repro.core import (
    EpsilonSchedule,
    FlatQPlacer,
    MultiLevelPlacer,
    Placer,
    PlacerResult,
    SimulatedAnnealingPlacer,
)
from repro.layout import PlacementEnv
from repro.netlist import current_mirror, five_transistor_ota
from repro.route import total_wirelength
from repro.tech import generic_tech_40

TECH = generic_tech_40()


def wirelength_objective(block):
    def cost(placement):
        return total_wirelength(block.circuit, placement, TECH) * 1e6
    return cost


def make_env(builder=five_transistor_ota):
    block = builder()
    return PlacementEnv(block, wirelength_objective(block))


ALL_PLACERS = [
    MultiLevelPlacer,
    FlatQPlacer,
    SimulatedAnnealingPlacer,
]
Q_PLACERS = [MultiLevelPlacer, FlatQPlacer]


@pytest.mark.parametrize("placer_cls", ALL_PLACERS)
class TestEveryPlacer:
    def test_satisfies_protocol(self, placer_cls):
        placer = placer_cls(make_env(), seed=0)
        assert isinstance(placer, Placer)

    def test_improves_or_matches_initial(self, placer_cls):
        placer = placer_cls(make_env(), seed=0)
        result = placer.optimize(max_steps=120)
        assert result.best_cost <= result.initial_cost
        assert isinstance(result, PlacerResult)

    def test_best_placement_matches_best_cost(self, placer_cls):
        env = make_env()
        placer = placer_cls(env, seed=0)
        result = placer.optimize(max_steps=120)
        recomputed = env.objective(result.best_placement)
        assert recomputed == pytest.approx(result.best_cost)

    def test_respects_sim_budget(self, placer_cls):
        placer = placer_cls(make_env(), seed=0)
        result = placer.optimize(max_steps=10_000, sim_budget=50)
        assert result.sims_used <= 60  # small overshoot for in-flight step

    def test_history_monotone_decreasing(self, placer_cls):
        placer = placer_cls(make_env(), seed=1)
        result = placer.optimize(max_steps=120)
        costs = [c for __, c in result.history]
        assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))

    def test_deterministic_given_seed(self, placer_cls):
        r1 = placer_cls(make_env(), seed=7).optimize(max_steps=80)
        r2 = placer_cls(make_env(), seed=7).optimize(max_steps=80)
        assert r1.best_cost == pytest.approx(r2.best_cost)
        assert r1.sims_used == r2.sims_used

    def test_stop_at_target(self, placer_cls):
        env = make_env()
        placer = placer_cls(env, seed=0)
        # A generous target: the initial cost itself (hit immediately).
        env.reset()
        initial = env.cost()
        result = placer.optimize(max_steps=500, target=initial * 2,
                                 stop_at_target=True)
        assert result.reached_target
        assert result.sims_to_target is not None


class TestSharedLoop:
    """Contracts of the one optimize loop all placers run."""

    @pytest.mark.parametrize("placer_cls", ALL_PLACERS)
    def test_no_legal_move(self, placer_cls, monkeypatch):
        # A single-agent placer stops at the first turn with no move; the
        # multi-level placer passes the turn on, so stubbing only the
        # group moves leaves its unit agents all 50 turns.
        env = make_env()
        monkeypatch.setattr(env, "legal_group_actions", lambda name: [])
        if placer_cls is not MultiLevelPlacer:
            monkeypatch.setattr(env, "legal_unit_actions", lambda group: [])
        result = placer_cls(env, seed=0).optimize(max_steps=50)
        if placer_cls is MultiLevelPlacer:
            assert result.steps == 50
        else:
            assert result.steps == 0
            assert result.best_cost == result.initial_cost
            assert result.sims_used == 1

    def test_no_restart_after_last_step(self):
        # The start, 200 turns and one restart between the two episodes;
        # the stop check runs before the restart, so none follows step 200.
        placer = FlatQPlacer(make_env(), episode_length=100, seed=0)
        result = placer.optimize(max_steps=200)
        assert result.steps == 200
        assert result.sims_used == 202


class TestMultiLevelSpecifics:
    def test_table_sizes_reported(self):
        placer = MultiLevelPlacer(make_env(), seed=0)
        result = placer.optimize(max_steps=60)
        diag = result.diagnostics
        assert diag["top_entries"] >= 0
        assert set(diag["bottom_entries"]) == {"tail", "input_pair", "pload"}
        assert diag["total_entries"] > 0

    def test_revert_disabled_accepts_everything(self):
        env = make_env()
        placer = MultiLevelPlacer(env, worse_tolerance=None, seed=0)
        result = placer.optimize(max_steps=100)
        assert result.best_cost <= result.initial_cost

    # The input checks are shared: each one covers every placer it binds.

    def test_bad_episode_length_rejected(self):
        for placer_cls in Q_PLACERS:
            with pytest.raises(ValueError, match="episode_length"):
                placer_cls(make_env(), episode_length=0)

    def test_bad_tolerance_rejected(self):
        for placer_cls in Q_PLACERS:
            with pytest.raises(ValueError, match="worse_tolerance"):
                placer_cls(make_env(), worse_tolerance=-0.1)

    def test_bad_max_steps_rejected(self):
        for placer_cls in ALL_PLACERS:
            with pytest.raises(ValueError, match="max_steps"):
                placer_cls(make_env(), seed=0).optimize(max_steps=0)

    def test_episodes_reset_environment(self):
        env = make_env()
        placer = MultiLevelPlacer(env, episode_length=10, seed=0)
        placer.optimize(max_steps=35)
        # After 3 episode boundaries the run ends mid-episode; we only
        # check the machinery ran without corrupting the placement.
        assert len(env.placement) == env.block.circuit.total_units()

    def test_hierarchy_beats_flat_on_table_size(self):
        """The scalability claim: for the same step budget the flat agent's
        table has at least as many state entries (it replicates the whole
        placement in every state)."""
        env1, env2 = make_env(current_mirror), make_env(current_mirror)
        eps = EpsilonSchedule(0.9, 0.05, 150)
        multi = MultiLevelPlacer(env1, epsilon=eps, seed=3)
        flat = FlatQPlacer(env2, epsilon=eps, seed=3)
        rm = multi.optimize(max_steps=250)
        rf = flat.optimize(max_steps=250)
        assert rf.diagnostics["states"] >= max(
            rm.diagnostics["top_states"], 1
        )


class TestSimulatedAnnealingSpecifics:
    def test_acceptance_rate_reported(self):
        placer = SimulatedAnnealingPlacer(make_env(), seed=0)
        result = placer.optimize(max_steps=150)
        assert 0.0 < result.diagnostics["acceptance_rate"] <= 1.0

    def test_cooling_reduces_acceptance(self):
        env = make_env()
        placer = SimulatedAnnealingPlacer(env, seed=0)
        placer.optimize(max_steps=300)
        # Not a strict guarantee per-run, but with geometric cooling the
        # overall acceptance must be well below 100 %.
        assert placer.accepted < placer.proposed
