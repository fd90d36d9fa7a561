"""Tests for Q-table save/load round trips."""

import json

import numpy as np
import pytest

from repro.core import MultiLevelPlacer, QTable
from repro.core.persistence import (
    load_tables_snapshot,
    qtable_from_dict,
    qtable_to_dict,
    save_tables_snapshot,
    tables_from_payload,
    tables_to_payload,
)
from repro.layout import PlacementEnv
from repro.netlist import (
    AnalogBlock,
    Circuit,
    Group,
    GroupKind,
    MatchedPair,
    Mosfet,
    SuperGroup,
    current_mirror,
    five_transistor_ota,
)


def area_objective(placement):
    return float(placement.area_cells())


def hostile_block() -> AnalogBlock:
    """A block whose first group is literally named ``top``."""
    ckt = Circuit("hostile")
    kw = dict(polarity=+1, width=1e-6, length=0.5e-6, n_units=2)
    ckt.add(Mosfet("m1", {"d": "a", "g": "b", "s": "gnd", "b": "gnd"}, **kw))
    ckt.add(Mosfet("m2", {"d": "b", "g": "a", "s": "gnd", "b": "gnd"}, **kw))
    return AnalogBlock(
        name="HOSTILE", kind="cm", circuit=ckt,
        groups=(
            Group("top", GroupKind.SINGLE, ("m1",)),
            Group("steps", GroupKind.SINGLE, ("m2",)),
        ),
        pairs=(MatchedPair("m1", "m2"),),
        super_groups=(SuperGroup("sym", ("top", "steps")),),
        canvas=(4, 4),
        input_nets=("a",),
    )


def snapshot_round_trip(placer, path):
    """A placer's tables after a trip through a snapshot file."""
    save_tables_snapshot(placer.export_tables(), path)
    tables, _ = load_tables_snapshot(path)
    return tables


class TestQTableRoundTrip:
    def test_empty_table(self):
        table = QTable()
        assert qtable_from_dict(qtable_to_dict(table)).n_entries == 0

    def test_tuple_states_and_actions(self):
        table = QTable()
        table.set(((0, 1, 2), (1, 0, 0)), (3, 7), 1.5)
        table.set("string_state", ("unit", 2, 4), -0.25)
        restored = qtable_from_dict(qtable_to_dict(table))
        assert restored.get(((0, 1, 2), (1, 0, 0)), (3, 7)) == 1.5
        assert restored.get("string_state", ("unit", 2, 4)) == -0.25
        assert restored.n_entries == table.n_entries

    def test_nested_structures(self):
        table = QTable()
        state = (("a", 0, 1), ("b", 2, 3), ("c", 4, 5))
        table.set(state, (0, 0), 0.125)
        restored = qtable_from_dict(qtable_to_dict(table))
        assert restored.state_value(state) == 0.125


class TestPlacerRoundTrip:
    def test_save_load_preserves_learning(self, tmp_path):
        env = PlacementEnv(five_transistor_ota(), area_objective)
        placer = MultiLevelPlacer(env, seed=1)
        placer.optimize(max_steps=60)
        tables = snapshot_round_trip(placer, tmp_path / "tables.json")

        fresh = MultiLevelPlacer(
            PlacementEnv(five_transistor_ota(), area_objective), seed=1)
        fresh.warm_start_from(tables)
        assert (sorted(fresh.top_agent.table.items())
                == sorted(placer.top_agent.table.items()))
        for name, agent in placer.bottom_agents.items():
            twin = fresh.bottom_agents[name]
            assert sorted(twin.table.items()) == sorted(agent.table.items())

    def test_resumed_placer_still_optimizes(self, tmp_path):
        env = PlacementEnv(five_transistor_ota(), area_objective)
        placer = MultiLevelPlacer(env, seed=1)
        placer.optimize(max_steps=40)
        tables = snapshot_round_trip(placer, tmp_path / "tables.json")

        resumed = MultiLevelPlacer(
            PlacementEnv(five_transistor_ota(), area_objective), seed=2)
        resumed.warm_start_from(tables)
        result = resumed.optimize(max_steps=40)
        assert result.best_cost <= result.initial_cost

    def test_group_mismatch_rejected(self, tmp_path):
        env = PlacementEnv(five_transistor_ota(), area_objective)
        placer = MultiLevelPlacer(env, seed=1)
        placer.optimize(max_steps=20)
        tables = snapshot_round_trip(placer, tmp_path / "tables.json")

        other = MultiLevelPlacer(
            PlacementEnv(current_mirror(), area_objective), seed=1)
        with pytest.raises(ValueError, match="unknown agents"):
            other.warm_start_from(tables)


class TestHostileGroupNames:
    def test_group_named_top_does_not_corrupt_top_agent(self, tmp_path):
        env = PlacementEnv(hostile_block(), area_objective)
        placer = MultiLevelPlacer(env, seed=5)
        placer.optimize(max_steps=40)
        group_agent = placer.bottom_agents["top"]
        assert placer.top_agent.table.n_entries > 0
        assert group_agent.table.n_entries > 0

        tables = snapshot_round_trip(placer, tmp_path / "tables.json")
        twin = MultiLevelPlacer(
            PlacementEnv(hostile_block(), area_objective), seed=99)
        twin.warm_start_from(tables)
        assert (sorted(twin.top_agent.table.items())
                == sorted(placer.top_agent.table.items()))
        assert (sorted(twin.bottom_agents["top"].table.items())
                == sorted(group_agent.table.items()))


class TestNumpyScalars:
    def test_numpy_values_and_keys_round_trip(self, tmp_path):
        table = QTable()
        table.set((np.int64(1), np.int64(2)), (np.int64(0), np.int64(3)),
                  np.float64(1.25))
        payload = qtable_to_dict(table)
        json.dumps(payload)  # must not raise
        restored = qtable_from_dict(payload)
        assert restored.get((1, 2), (0, 3)) == 1.25

    def test_table_trained_through_batched_path_saves(self, tmp_path):
        # Batched pricing hands numpy arrays back to the agents, so
        # rewards (hence Q-values) can arrive as np.float64 — the whole
        # snapshot must still serialise.
        def np_objective(placement):
            return np.float64(placement.area_cells())

        def np_objective_many(placements):
            return np.asarray([float(p.area_cells()) for p in placements])

        env = PlacementEnv(five_transistor_ota(), np_objective,
                           objective_many=np_objective_many)
        placer = MultiLevelPlacer(env, batch=3, seed=2)
        placer.optimize(max_steps=30)
        assert placer.top_agent.table.n_entries > 0
        restored = snapshot_round_trip(placer, tmp_path / "tables.json")
        assert (sorted(restored[("top",)].items())
                == sorted(placer.top_agent.table.items()))


class TestTablesSnapshots:
    def test_snapshot_payload_round_trip(self):
        table = QTable()
        table.set((0, 1), (2, 3), 1.5)
        other = QTable()
        other.set("s", "a", -0.5)
        tables = {("top",): table, ("bottom", "input_pair"): other}
        restored = tables_from_payload(tables_to_payload(tables))
        assert set(restored) == set(tables)
        assert sorted(restored[("top",)].items()) == sorted(table.items())
        assert (sorted(restored[("bottom", "input_pair")].items())
                == sorted(other.items()))

    def test_snapshot_file_round_trip_with_meta(self, tmp_path):
        env = PlacementEnv(five_transistor_ota(), area_objective)
        placer = MultiLevelPlacer(env, seed=1)
        placer.optimize(max_steps=30)
        tables = placer.export_tables()
        path = tmp_path / "master.json"
        save_tables_snapshot(tables, path, round=2, merge_how="max")
        restored, meta = load_tables_snapshot(path)
        assert meta == {"round": 2, "merge_how": "max"}
        assert set(restored) == set(tables)
        for key in tables:
            assert sorted(restored[key].items()) == sorted(tables[key].items())


class TestVisitCountPersistence:
    def test_visits_round_trip_through_payload(self):
        table = QTable()
        table.set("s", "a", 1.5, visits=4)
        table.set("s", "b", 2.5)
        payload = qtable_to_dict(table)
        json.dumps(payload)  # must stay JSON-plain
        restored = qtable_from_dict(payload)
        assert restored.get("s", "a") == 1.5
        assert restored.visits("s", "a") == 4
        assert restored.visits("s", "b") == 0

    def test_version2_bare_float_entries_still_load(self):
        # Pre-visit payloads store bare floats; they load with visits 0.
        payload = {"'s'": {"'a'": 1.25}}
        restored = qtable_from_dict(payload)
        assert restored.get("s", "a") == 1.25
        assert restored.visits("s", "a") == 0

    def test_snapshot_round_trip_keeps_visits(self):
        table = QTable()
        table.set((1, 2), (0,), -0.5, visits=9)
        restored = tables_from_payload(tables_to_payload({("top",): table}))
        assert restored[("top",)].visits((1, 2), (0,)) == 9
