"""UCB exploration: deterministic, visit-aware, epsilon-free."""

import numpy as np
import pytest

from repro.core.policy import ucb_select, ucb_topk
from repro.core.qlearning import EXPLORATIONS, QAgent


class TestUcbSelect:
    def test_unvisited_beats_equal_q_visited(self):
        # Equal Q estimates: the action with no evidence gets the larger
        # bonus and must be tried first.
        action = ucb_select({"a": 1.0, "b": 1.0}, {"a": 50}, ["a", "b"], t=10,
                            c=0.5)
        assert action == "b"

    def test_heavy_evidence_is_trusted(self):
        # A well-visited high-Q action beats an unvisited one once the
        # value gap dwarfs the bonus.
        action = ucb_select({"a": 5.0, "b": 0.0}, {"a": 200, "b": 0},
                            ["a", "b"], t=10, c=0.5)
        assert action == "a"

    def test_c_zero_is_pure_greedy_with_stable_ties(self):
        assert ucb_select({}, {}, ["x", "y", "z"], t=0, c=0.0) == "x"
        assert ucb_select({"y": 1.0}, {}, ["x", "y", "z"], t=0, c=0.0) == "y"

    def test_deterministic(self):
        picks = {ucb_select({"a": 0.3}, {"a": 2}, ["a", "b", "c"], t=7, c=0.5)
                 for _ in range(20)}
        assert len(picks) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="legal"):
            ucb_select({}, {}, [], t=0, c=0.5)
        with pytest.raises(ValueError, match="step"):
            ucb_select({}, {}, ["a"], t=-1, c=0.5)
        with pytest.raises(ValueError, match="constant"):
            ucb_select({}, {}, ["a"], t=0, c=-0.5)


class TestUcbTopk:
    def test_k1_is_select(self):
        q, n, legal = {"a": 1.0, "b": 2.0}, {"b": 9}, ["a", "b", "c"]
        assert ucb_topk(q, n, legal, t=3, c=0.5, k=1) \
            == [ucb_select(q, n, legal, t=3, c=0.5)]

    def test_ranked_extras_cover_all_legal(self):
        out = ucb_topk({"a": 1.0}, {}, ["a", "b", "c"], t=0, c=0.5, k=3)
        assert sorted(out) == ["a", "b", "c"]
        assert out[0] == ucb_select({"a": 1.0}, {}, ["a", "b", "c"], t=0,
                                    c=0.5)

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            ucb_topk({}, {}, ["a"], t=0, c=0.5, k=0)


class TestQAgentUcbMode:
    def test_mode_registry_and_validation(self):
        assert EXPLORATIONS == ("epsilon", "ucb")
        with pytest.raises(ValueError, match="exploration"):
            QAgent(exploration="boltzmann")

    def test_select_consumes_no_rng(self):
        agent = QAgent(exploration="ucb", rng=np.random.default_rng(42))
        before = agent.rng.bit_generator.state
        agent.select_many("s", [0, 1, 2], 1)
        agent.select_many("s", [0, 1, 2], k=2)
        assert agent.rng.bit_generator.state == before
        assert agent.steps == 2

    def test_visits_steer_selection(self):
        agent = QAgent(exploration="ucb")
        # Both actions look equally good; visiting one must push the
        # agent to the other.
        agent.table.set("s", 0, 1.0, visits=30)
        agent.table.set("s", 1, 1.0, visits=1)
        assert agent.select_many("s", [0, 1], 1)[0] == 1

    def test_two_ucb_agents_agree_exactly(self):
        # Determinism across instances: no RNG, no hidden state beyond
        # the step counter.
        a, b = QAgent(exploration="ucb"), QAgent(exploration="ucb")
        for table in (a.table, b.table):
            table.set("s", 0, 0.4, visits=3)
            table.set("s", 1, 0.2, visits=1)
        trace_a = [a.select_many("s", [0, 1, 2], 1)[0] for _ in range(10)]
        trace_b = [b.select_many("s", [0, 1, 2], 1)[0] for _ in range(10)]
        assert trace_a == trace_b

    def test_epsilon_mode_unchanged_default(self):
        agent = QAgent()
        assert agent.exploration == "epsilon"
