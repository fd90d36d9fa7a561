"""Tests for the Q-table and the Bellman update against hand calculations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EpsilonSchedule, MergeStats, QAgent, QTable


class TestQTable:
    def test_default_zero(self):
        table = QTable()
        assert table.get("s", "a") == 0.0
        assert table.state_value("s") == 0.0

    def test_set_get(self):
        table = QTable()
        table.set("s", "a", 2.5)
        assert table.get("s", "a") == 2.5

    def test_state_value_is_max(self):
        table = QTable()
        table.set("s", "a", 1.0)
        table.set("s", "b", 3.0)
        table.set("s", "c", -2.0)
        assert table.state_value("s") == 3.0

    def test_sizes(self):
        table = QTable()
        table.set("s1", "a", 1.0)
        table.set("s1", "b", 1.0)
        table.set("s2", "a", 1.0)
        assert table.n_states == 2
        assert table.n_entries == 3


class TestBellmanUpdate:
    def test_hand_computed_update(self):
        # Q <- (1-a) Q + a [r + g V(s')], paper Eq. (1).
        agent = QAgent(alpha=0.5, gamma=0.9, rng=np.random.default_rng(0))
        agent.table.set("s1", "x", 2.0)
        agent.table.set("s2", "y", 4.0)  # V(s2) = 4
        new = agent.learn("s1", "x", reward=1.0, next_state="s2")
        expected = 0.5 * 2.0 + 0.5 * (1.0 + 0.9 * 4.0)
        assert new == pytest.approx(expected)
        assert agent.table.get("s1", "x") == pytest.approx(expected)

    def test_unseen_next_state_bootstraps_zero(self):
        agent = QAgent(alpha=1.0, gamma=0.9)
        new = agent.learn("s", "a", reward=2.0, next_state="never_seen")
        assert new == pytest.approx(2.0)

    def test_repeated_updates_converge_to_fixed_point(self):
        # Constant reward r, self-loop: Q* = r / (1 - gamma).
        agent = QAgent(alpha=0.5, gamma=0.5)
        for __ in range(200):
            agent.learn("s", "a", reward=1.0, next_state="s")
        assert agent.table.get("s", "a") == pytest.approx(2.0, rel=1e-6)

    def test_invalid_hyperparams_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            QAgent(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            QAgent(alpha=1.5)
        with pytest.raises(ValueError, match="gamma"):
            QAgent(gamma=1.0)


class TestSelection:
    def test_select_advances_own_counter(self):
        agent = QAgent(epsilon=EpsilonSchedule(1.0, 0.0, 10))
        for __ in range(5):
            agent.select_many("s", ["a"], 1)
        assert agent.steps == 5

    def test_global_step_overrides_schedule_position(self):
        agent = QAgent(epsilon=EpsilonSchedule(1.0, 0.0, 10),
                       rng=np.random.default_rng(1))
        agent.table.set("s", "best", 10.0)
        # At global step >= 10 epsilon is 0: always greedy.
        picks = {agent.select_many("s", ["best", "other"], 1, step=10)[0] for __ in range(50)}
        assert picks == {"best"}

    def test_deterministic_given_seed(self):
        a = QAgent(rng=np.random.default_rng(42))
        b = QAgent(rng=np.random.default_rng(42))
        actions = ["x", "y", "z"]
        seq_a = [a.select_many("s", actions, 1)[0] for __ in range(20)]
        seq_b = [b.select_many("s", actions, 1)[0] for __ in range(20)]
        assert seq_a == seq_b


class TestTableItemsAndMerge:
    def test_items_walks_all_entries(self):
        table = QTable()
        table.set("s1", "a", 1.0)
        table.set("s1", "b", 2.0)
        table.set("s2", "a", 3.0)
        assert sorted(table.items()) == [
            ("s1", "a", 1.0), ("s1", "b", 2.0), ("s2", "a", 3.0)]

    def test_items_empty_table(self):
        assert list(QTable().items()) == []

    def test_merge_theirs_overwrites(self):
        ours, theirs = QTable(), QTable()
        ours.set("s", "a", 1.0)
        ours.set("s", "b", 5.0)
        theirs.set("s", "a", 2.0)
        theirs.set("t", "c", 3.0)
        ours.merge(theirs)
        assert ours.get("s", "a") == 2.0
        assert ours.get("s", "b") == 5.0
        assert ours.get("t", "c") == 3.0

    def test_merge_ours_keeps_local(self):
        ours, theirs = QTable(), QTable()
        ours.set("s", "a", 1.0)
        theirs.set("s", "a", 2.0)
        theirs.set("s", "b", 4.0)
        ours.merge(theirs, how="ours")
        assert ours.get("s", "a") == 1.0
        assert ours.get("s", "b") == 4.0

    def test_merge_max_is_optimistic(self):
        ours, theirs = QTable(), QTable()
        ours.set("s", "a", 1.0)
        ours.set("s", "b", 9.0)
        theirs.set("s", "a", 2.0)
        theirs.set("s", "b", -1.0)
        ours.merge(theirs, how="max")
        assert ours.get("s", "a") == 2.0
        assert ours.get("s", "b") == 9.0

    def test_merge_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="how"):
            QTable().merge(QTable(), how="average")

    def test_merge_reports_statistics(self):
        ours, theirs = QTable(), QTable()
        ours.set("s", "a", 1.0)   # updated by theirs
        ours.set("s", "b", 5.0)   # kept (identical value)
        theirs.set("s", "a", 2.0)
        theirs.set("s", "b", 5.0)
        theirs.set("t", "c", 3.0)  # added
        stats = ours.merge(theirs)
        assert (stats.added, stats.updated, stats.kept) == (1, 1, 1)

    def test_merge_max_counts_losing_entries_as_kept(self):
        ours, theirs = QTable(), QTable()
        ours.set("s", "a", 9.0)
        theirs.set("s", "a", 2.0)
        stats = ours.merge(theirs, how="max")
        assert (stats.added, stats.updated, stats.kept) == (0, 0, 1)

    def test_merge_stats_accumulate(self):
        total = MergeStats()
        total += MergeStats(added=2, updated=1, kept=3)
        total += MergeStats(added=1)
        assert (total.added, total.updated, total.kept) == (3, 1, 3)

    def test_set_coerces_numpy_scalars(self):
        table = QTable()
        table.set("s", "a", np.float64(1.5))
        value = table.get("s", "a")
        assert type(value) is float and value == 1.5

    def test_copy_is_independent(self):
        table = QTable()
        table.set("s", "a", 1.0)
        dup = table.copy()
        dup.set("s", "a", 9.0)
        dup.set("t", "b", 2.0)
        assert table.get("s", "a") == 1.0
        assert table.n_entries == 1


def _entries(table):
    return sorted(table.items())


def _table_from(entries):
    table = QTable()
    for state, action, value in entries:
        table.set(state, action, value)
    return table


# Small discrete key space so tables genuinely collide.
_entry = st.tuples(
    st.integers(min_value=0, max_value=3),   # state
    st.integers(min_value=0, max_value=2),   # action
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
_tables = st.lists(_entry, max_size=12).map(_table_from)


class TestMergeProperties:
    @given(table=_tables, how=st.sampled_from(["theirs", "ours", "max"]))
    @settings(max_examples=60, deadline=None)
    def test_self_merge_is_idempotent(self, table, how):
        before = _entries(table)
        stats = table.merge(table.copy(), how=how)
        assert _entries(table) == before
        assert stats.added == 0 and stats.updated == 0
        assert stats.kept == len(before)

    @given(a=_tables, b=_tables)
    @settings(max_examples=60, deadline=None)
    def test_max_merge_commutes(self, a, b):
        ab, ba = a.copy(), b.copy()
        ab.merge(b, how="max")
        ba.merge(a, how="max")
        assert _entries(ab) == _entries(ba)

    @given(a=_tables, b=_tables)
    @settings(max_examples=60, deadline=None)
    def test_theirs_merge_absorbs_other(self, a, b):
        merged = a.copy()
        merged.merge(b, how="theirs")
        for state, action, value in b.items():
            assert merged.get(state, action) == value

    @given(a=_tables, b=_tables)
    @settings(max_examples=60, deadline=None)
    def test_merge_never_loses_entries(self, a, b):
        keys = {(s, x) for s, x, __ in a.items()}
        keys |= {(s, x) for s, x, __ in b.items()}
        merged = a.copy()
        merged.merge(b, how="max")
        assert merged.n_entries == len(keys)


class TestVisitCounts:
    def test_record_bumps_visits_set_does_not(self):
        table = QTable()
        table.record("s", "a", 1.0)
        table.record("s", "a", 2.0)
        table.set("s", "a", 3.0)
        assert table.visits("s", "a") == 2
        assert table.get("s", "a") == 3.0
        assert table.visits("s", "b") == 0

    def test_set_with_explicit_visits(self):
        table = QTable()
        table.set("s", "a", 1.0, visits=7)
        assert table.visits("s", "a") == 7

    def test_entries_carry_visits(self):
        table = QTable()
        table.record("s", "a", 1.0)
        table.set("s", "b", 2.0)
        assert sorted(table.entries()) == [
            ("s", "a", 1.0, 1), ("s", "b", 2.0, 0)]

    def test_copy_is_visit_independent(self):
        table = QTable()
        table.record("s", "a", 1.0)
        dup = table.copy()
        dup.record("s", "a", 2.0)
        assert table.visits("s", "a") == 1
        assert dup.visits("s", "a") == 2

    def test_agent_learn_counts_visits(self):
        agent = QAgent()
        agent.learn("s", "a", reward=1.0, next_state="t")
        agent.learn("s", "a", reward=1.0, next_state="t")
        assert agent.table.visits("s", "a") == 2


class TestVisitsMerge:
    def test_weighted_average(self):
        ours, theirs = QTable(), QTable()
        ours.set("s", "a", 1.0, visits=3)
        theirs.set("s", "a", 5.0, visits=1)
        stats = ours.merge(theirs, how="visits")
        assert ours.get("s", "a") == (1.0 * 3 + 5.0 * 1) / 4
        assert ours.visits("s", "a") == 4
        assert (stats.added, stats.updated, stats.kept) == (0, 1, 0)

    def test_zero_visits_fall_back_to_theirs(self):
        ours, theirs = QTable(), QTable()
        ours.set("s", "a", 1.0)
        theirs.set("s", "a", 5.0)
        ours.merge(theirs, how="visits")
        assert ours.get("s", "a") == 5.0

    def test_added_entries_keep_their_visits(self):
        ours, theirs = QTable(), QTable()
        theirs.set("s", "a", 5.0, visits=4)
        ours.merge(theirs, how="visits")
        assert ours.get("s", "a") == 5.0
        assert ours.visits("s", "a") == 4

    def test_visits_sum_under_every_rule(self):
        for how in ("theirs", "ours", "max", "visits"):
            ours, theirs = QTable(), QTable()
            ours.set("s", "a", 1.0, visits=2)
            theirs.set("s", "a", 2.0, visits=3)
            ours.merge(theirs, how=how)
            assert ours.visits("s", "a") == 5, how

    @given(a=_tables, b=_tables)
    @settings(max_examples=60, deadline=None)
    def test_visits_merge_of_two_tables_commutes(self, a, b):
        # record() every entry once so weights are non-trivial.
        for table in (a, b):
            for state, action, value in list(table.items()):
                table.record(state, action, value)
        ab, ba = a.copy(), b.copy()
        ab.merge(b, how="visits")
        ba.merge(a, how="visits")
        assert _entries(ab) == _entries(ba)


class TestPrune:
    def _table(self):
        table = QTable()
        table.set("s", "hot", 5.0, visits=10)
        table.set("s", "stale", 4.0, visits=1)
        table.set("t", "tiny", 1e-9, visits=10)
        return table

    def test_default_prune_keeps_everything(self):
        table = self._table()
        stats = table.prune()
        assert (stats.kept, stats.dropped) == (3, 0)
        assert table.n_entries == 3

    def test_min_visits_drops_stale(self):
        table = self._table()
        stats = table.prune(min_visits=2)
        assert (stats.kept, stats.dropped) == (2, 1)
        assert table.get("s", "stale") == 0.0

    def test_min_abs_q_drops_negligible_and_empties_states(self):
        table = self._table()
        stats = table.prune(min_abs_q=1e-6)
        assert (stats.kept, stats.dropped) == (2, 1)
        assert table.n_states == 1  # state "t" vanished entirely

    def test_negative_q_survives_abs_threshold(self):
        table = QTable()
        table.set("s", "a", -3.0, visits=5)
        assert table.prune(min_abs_q=1.0).kept == 1

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError, match="min_visits"):
            QTable().prune(min_visits=-1)
        with pytest.raises(ValueError, match="min_abs_q"):
            QTable().prune(min_abs_q=-0.5)
