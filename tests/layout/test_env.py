"""Tests for the RL placement environment."""

import pytest

from repro.layout import PlacementEnv
from repro.netlist import current_mirror, five_transistor_ota


def area_objective(placement):
    return float(placement.area_cells())


@pytest.fixture
def env():
    return PlacementEnv(five_transistor_ota(), area_objective)


class TestBasics:
    def test_groups_enumerated(self, env):
        assert set(env.group_names) == {"tail", "input_pair", "pload"}

    def test_cost_calls_objective(self, env):
        assert env.cost() == float(env.placement.area_cells())

    def test_bad_adjacency_rejected(self):
        with pytest.raises(ValueError, match="adjacency"):
            PlacementEnv(five_transistor_ota(), area_objective, adjacency=5)

    def test_reset_restores_initial(self, env):
        sig0 = env.placement.signature()
        moved = False
        for k in range(8):
            if env.step_group("input_pair", k):
                moved = True
                break
        assert moved
        assert env.placement.signature() != sig0
        env.reset()
        assert env.placement.signature() == sig0


class TestStates:
    def test_group_state_translation_invariant(self, env):
        state0 = env.group_state("input_pair")
        for k in range(8):
            if env.step_group("input_pair", k):
                break
        assert env.group_state("input_pair") == state0

    def test_group_state_changes_on_internal_move(self, env):
        state0 = env.group_state("input_pair")
        actions = env.legal_unit_actions("input_pair")
        assert actions
        local, direction = actions[0]
        assert env.step_unit("input_pair", local, direction)
        assert env.group_state("input_pair") != state0

    def test_group_state_distinguishes_devices(self, env):
        """Swapping units of *different* devices changes the state even
        though the occupied cells are identical."""
        state0 = env.group_state("input_pair")
        c1 = env.placement.cell_of(("m1", 0))
        c2 = env.placement.cell_of(("m2", 0))
        env.placement.move_many({("m1", 0): c2, ("m2", 0): c1})
        assert env.group_state("input_pair") != state0

    def test_global_state_tracks_group_motion(self, env):
        g0 = env.global_state()
        for k in range(8):
            if env.step_group("pload", k):
                break
        assert env.global_state() != g0


class TestSteps:
    def test_illegal_step_returns_false_and_leaves_placement(self, env):
        sig = env.placement.signature()
        results = [env.step_group("input_pair", k) for k in range(8)]
        legal_count = sum(results)
        assert legal_count == len(env.legal_group_actions("input_pair")) > 0
        # After all 8 attempts the placement moved; reset and check an
        # illegal direction alone does nothing.
        env.reset()
        illegal = [k for k in range(8) if k not in env.legal_group_actions("input_pair")]
        if illegal:
            assert not env.step_group("input_pair", illegal[0])
            assert env.placement.signature() == sig

    def test_undo_unit_restores(self, env):
        sig = env.placement.signature()
        actions = env.legal_unit_actions("pload")
        local, direction = actions[0]
        assert env.step_unit("pload", local, direction)
        env.undo_unit("pload", local, direction)
        assert env.placement.signature() == sig

    def test_undo_group_restores(self, env):
        sig = env.placement.signature()
        legal = env.legal_group_actions("tail")
        assert legal
        assert env.step_group("tail", legal[0])
        env.undo_group("tail", legal[0])
        assert env.placement.signature() == sig

    def test_unit_index_out_of_range(self, env):
        with pytest.raises(IndexError, match="unit index"):
            env.step_unit("tail", 99, 0)

    def test_legal_unit_actions_are_actually_legal(self, env):
        for group in env.group_names:
            for local, direction in env.legal_unit_actions(group):
                copy_env = PlacementEnv(env.block, area_objective)
                # Re-derive on a fresh env with same initial placement.
                assert copy_env.step_unit(group, local, direction)


class TestOnCurrentMirror:
    def test_env_builds_for_cm(self):
        env = PlacementEnv(current_mirror(), area_objective)
        assert len(env.group_names) == 2
        assert env.cost() > 0
