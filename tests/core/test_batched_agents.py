"""The propose/observe candidate protocol and its k=1 trajectory guarantee.

The golden values below were recorded from the pre-refactor placers
(select → apply → price → learn → keep/revert, one move per step) on the
deterministic wirelength objective.  Every placer rebuilt around the
batched propose(k)/observe protocol must reproduce them **bit for bit**
at ``batch=1`` — the refactor is a throughput knob, not a behavior
change.
"""

import pytest

from repro.core import (
    FlatQPlacer,
    MultiLevelPlacer,
    Outcome,
    Proposal,
    ProposingAgent,
    QAgent,
    SimulatedAnnealingPlacer,
    epsilon_greedy_topk,
    price_proposals,
)
from repro.core.annealing import _SaTurn
from repro.core.hierarchy import _TopTurn
from repro.eval import PlacementEvaluator
from repro.layout import PlacementEnv
from repro.netlist import current_mirror, five_transistor_ota
from repro.route import total_wirelength
from repro.tech import generic_tech_40

TECH = generic_tech_40()


def make_env(builder=five_transistor_ota):
    block = builder()
    return PlacementEnv(
        block, lambda p: total_wirelength(block.circuit, p, TECH) * 1e6)


# (best_cost, sims_used, steps, history) of the pre-refactor placers:
# five_transistor_ota, wirelength objective, seed=7, max_steps=80.  The
# trackers now seed every history with the starting sample, so each
# golden history gains the (1, initial_cost) point the pre-refactor
# trackers silently dropped; every later sample is bit-identical.
GOLDEN_OTA5T = {
    MultiLevelPlacer: (8.5, 81, 80, [
        (1, 11.999999999999998),
        (64, 11.499999999999998), (65, 11.0), (67, 10.500000000000002),
        (69, 9.5), (76, 8.999999999999998), (77, 8.5)]),
    FlatQPlacer: (10.0, 81, 80, [
        (1, 11.999999999999998),
        (6, 11.499999999999998), (9, 10.999999999999998), (11, 10.5),
        (26, 10.0)]),
    SimulatedAnnealingPlacer: (4.000000000000001, 81, 80, [
        (1, 11.999999999999998),
        (6, 11.999999999999996), (11, 11.500000000000002), (14, 10.5),
        (22, 8.5), (26, 8.0), (38, 6.999999999999999),
        (42, 6.499999999999999), (49, 5.0), (64, 4.000000000000001)]),
}
# (best_cost, sims_used, steps): current_mirror, seed=3, max_steps=60.
GOLDEN_CM = {
    MultiLevelPlacer: (8.75, 61, 60),
    FlatQPlacer: (9.25, 61, 60),
    SimulatedAnnealingPlacer: (5.749999999999999, 61, 60),
}

# (best_cost, sims_used, history) at batch=4, recorded before the turns
# priced the primary move on the live placement (each candidate was then
# a snapshot applied and undone): five_transistor_ota, wirelength
# objective, seed=7, max_steps=80.
GOLDEN_OTA5T_BATCH4 = {
    MultiLevelPlacer: (8.5, 315, [
        (1, 11.999999999999998), (247, 11.499999999999998), (251, 11.0),
        (259, 10.500000000000002), (267, 9.5), (295, 8.999999999999998),
        (299, 8.5)]),
    FlatQPlacer: (10.0, 321, [
        (1, 11.999999999999998), (21, 11.499999999999998),
        (33, 10.999999999999998), (41, 10.5), (101, 10.0)]),
    SimulatedAnnealingPlacer: (3.0, 321, [
        (1, 11.999999999999998), (5, 8.999999999999998), (153, 8.5),
        (189, 7.499999999999999), (205, 6.999999999999999), (209, 6.0),
        (217, 5.5), (221, 5.0), (225, 4.5), (245, 3.5000000000000004),
        (253, 3.5), (269, 3.0)]),
}
# The same at batch=4 on current_mirror with the simulator objective
# (evaluate_many prices the candidates; sims_used counts simulations):
# seed=3, max_steps=40.
GOLDEN_CM_SIM_BATCH4 = {
    MultiLevelPlacer: (3.4823671219185934, 153, [
        (1, 4.00944795884001), (68, 3.595687744763726),
        (153, 3.4823671219185934)]),
    FlatQPlacer: (0.8674098057387293, 150, [
        (1, 4.00944795884001), (5, 2.2346760801022683),
        (23, 2.0469320788249536), (43, 2.013456115721092),
        (117, 1.4409552538328738), (125, 1.3592638209673849),
        (129, 1.2935455977943657), (133, 1.0374019258643825),
        (137, 0.8674098057387293)]),
    SimulatedAnnealingPlacer: (0.09231317167584087, 149, [
        (1, 4.00944795884001), (4, 3.7428339166523634),
        (15, 3.5040378155017633), (35, 2.4815524249305465),
        (51, 2.4804002567771977), (55, 2.4720808771202685),
        (62, 2.0822569593831046), (66, 0.7986557063218069),
        (112, 0.12663699458399238), (116, 0.09931260730859533),
        (138, 0.09360720505663112), (145, 0.09231317167584087)]),
}

# (best_cost, sims_used, steps, history) of the two Q placers with
# exploration="ucb", recorded while the UCB strength was still a
# constructor argument (default 0.5): five_transistor_ota, wirelength
# objective, seed=7, max_steps=80, keyed by (placer, batch).
GOLDEN_OTA5T_UCB = {
    (MultiLevelPlacer, 1): (8.0, 80, 80, [
        (1, 11.999999999999998), (4, 11.5), (12, 10.5), (16, 10.0),
        (18, 8.0)]),
    (MultiLevelPlacer, 4): (7.499999999999999, 305, 80, [
        (1, 11.999999999999998), (13, 11.5), (45, 11.499999999999998),
        (61, 10.5), (69, 9.5), (73, 8.499999999999998), (107, 8.0),
        (179, 7.499999999999999)]),
    (FlatQPlacer, 1): (10.5, 81, 80, [
        (1, 11.999999999999998), (2, 11.5), (29, 10.999999999999998),
        (80, 10.5)]),
    (FlatQPlacer, 4): (9.0, 321, 80, [
        (1, 11.999999999999998), (5, 11.5), (109, 10.999999999999998),
        (137, 10.5), (221, 10.0), (305, 9.0)]),
}

ALL_PLACERS = [MultiLevelPlacer, FlatQPlacer, SimulatedAnnealingPlacer]


@pytest.mark.parametrize("placer_cls", ALL_PLACERS)
class TestK1ReproducesPreRefactorTrajectories:
    def test_golden_ota5t(self, placer_cls):
        result = placer_cls(make_env(), seed=7).optimize(max_steps=80)
        best, sims, steps, history = GOLDEN_OTA5T[placer_cls]
        assert result.best_cost == best          # bit-for-bit, no approx
        assert result.sims_used == sims
        assert result.steps == steps
        assert result.history == history

    def test_golden_cm(self, placer_cls):
        result = placer_cls(
            make_env(current_mirror), seed=3).optimize(max_steps=60)
        assert (result.best_cost, result.sims_used,
                result.steps) == GOLDEN_CM[placer_cls]

    def test_batch_1_explicit_equals_default(self, placer_cls):
        a = placer_cls(make_env(), seed=11).optimize(max_steps=60)
        b = placer_cls(make_env(), batch=1, seed=11).optimize(max_steps=60)
        assert a.best_cost == b.best_cost
        assert a.history == b.history
        assert a.sims_used == b.sims_used


@pytest.mark.parametrize("placer_cls", ALL_PLACERS)
class TestBatch4Trajectories:
    def test_golden_ota5t(self, placer_cls):
        result = placer_cls(make_env(), batch=4, seed=7).optimize(
            max_steps=80)
        assert (result.best_cost, result.sims_used,
                result.history) == GOLDEN_OTA5T_BATCH4[placer_cls]

    def test_golden_cm_simulator(self, placer_cls):
        block = current_mirror()
        evaluator = PlacementEvaluator(block)
        env = PlacementEnv(block, evaluator.cost,
                           objective_many=evaluator.cost_many)
        result = placer_cls(
            env, batch=4, seed=3, sim_counter=lambda: evaluator.sim_count,
        ).optimize(max_steps=40)
        assert (result.best_cost, result.sims_used,
                result.history) == GOLDEN_CM_SIM_BATCH4[placer_cls]


@pytest.mark.parametrize("key", list(GOLDEN_OTA5T_UCB),
                         ids=lambda key: f"{key[0].__name__}-k{key[1]}")
def test_ucb_golden_ota5t(key):
    placer_cls, batch = key
    result = placer_cls(make_env(), batch=batch, seed=7,
                        exploration="ucb").optimize(max_steps=80)
    assert (result.best_cost, result.sims_used, result.steps,
            result.history) == GOLDEN_OTA5T_UCB[key]


@pytest.mark.parametrize("placer_cls", ALL_PLACERS)
class TestBatchedTurns:
    def test_batched_run_improves(self, placer_cls):
        placer = placer_cls(make_env(), batch=4, seed=5)
        result = placer.optimize(max_steps=60)
        assert result.best_cost <= result.initial_cost
        env = placer.env
        assert env.objective(result.best_placement) == pytest.approx(
            result.best_cost)

    def test_batched_run_deterministic(self, placer_cls):
        r1 = placer_cls(make_env(), batch=4, seed=9).optimize(max_steps=50)
        r2 = placer_cls(make_env(), batch=4, seed=9).optimize(max_steps=50)
        assert r1.best_cost == r2.best_cost
        assert r1.history == r2.history

    def test_batch_prices_k_candidates_per_turn(self, placer_cls):
        placer = placer_cls(make_env(), batch=4, seed=0)
        result = placer.optimize(max_steps=20)
        # Default sim counter counts objective calls: 1 initial + up to 4
        # per turn (agents may have fewer legal/distinct candidates).
        assert result.sims_used > result.steps + 1
        assert result.sims_used <= 1 + 4 * result.steps + 4

    def test_invalid_batch_rejected(self, placer_cls):
        with pytest.raises(ValueError, match="batch"):
            placer_cls(make_env(), batch=0)


class TestProtocolPieces:
    def test_turns_satisfy_protocol(self):
        ml = MultiLevelPlacer(make_env(), seed=0)
        assert isinstance(_TopTurn(ml, ml.top_agent), ProposingAgent)
        sa = SimulatedAnnealingPlacer(make_env(), seed=0)
        assert isinstance(_SaTurn(sa), ProposingAgent)

    def test_price_proposals_routes_costs(self):
        class Stub:
            def __init__(self):
                self.seen = None

            def propose(self, k):
                return [Proposal(action=i, placement=p)
                        for i, p in enumerate(["p0", "p1"][:k])]

            def observe(self, outcomes):
                self.seen = [(o.proposal.action, o.cost) for o in outcomes]
                return outcomes[0].cost

        stub = Stub()
        got = price_proposals(stub, 2, lambda ps: [float(len(p)) for p in ps])
        assert stub.seen == [(0, 2.0), (1, 2.0)]
        assert got == 2.0

    def test_price_proposals_empty_is_none(self):
        class Empty:
            def propose(self, k):
                return []

            def observe(self, outcomes):  # pragma: no cover
                raise AssertionError("must not observe an empty batch")

        assert price_proposals(Empty(), 4, lambda ps: []) is None

    def test_epsilon_greedy_topk_primary_matches_scalar(self):
        import numpy as np

        from repro.core.policy import epsilon_greedy

        q = {"a": 1.0, "b": 3.0, "c": 2.0}
        legal = ["a", "b", "c"]
        for seed in range(20):
            r1 = np.random.default_rng(seed)
            r2 = np.random.default_rng(seed)
            single = epsilon_greedy(q, legal, 0.4, r1)
            many = epsilon_greedy_topk(q, legal, 0.4, r2, 3)
            assert many[0] == single
            assert len(many) == 3 and len(set(many)) == 3
            # Runners-up are ranked by Q estimate.
            rest = [a for a in legal if a != single]
            rest.sort(key=lambda a: -q[a])
            assert many[1:] == rest

    def test_epsilon_greedy_topk_k_validation(self):
        import numpy as np

        with pytest.raises(ValueError, match="k must be"):
            epsilon_greedy_topk({}, ["a"], 0.0, np.random.default_rng(0), 0)

    def test_select_many_advances_one_schedule_step(self):
        agent = QAgent()
        agent.select_many("s", [1, 2, 3], k=3)
        assert agent.steps == 1

    def test_outcome_carries_proposal(self):
        p = Proposal(action="x", placement=None, next_state="s2")
        o = Outcome(proposal=p, cost=1.5)
        assert o.proposal.next_state == "s2"


class TestBatchedObserveLearnsFromAllOutcomes:
    def test_runnerup_outcomes_update_qtable(self):
        """With batch k, a turn writes up to k Q-entries for its state."""
        env1, env2 = make_env(), make_env()
        single = MultiLevelPlacer(env1, batch=1, seed=2)
        batched = MultiLevelPlacer(env2, batch=6, seed=2)
        r1 = single.optimize(max_steps=30)
        r6 = batched.optimize(max_steps=30)
        assert (r6.diagnostics["total_entries"]
                > r1.diagnostics["total_entries"])


class TestEnvCostMany:
    def test_falls_back_to_scalar_objective(self):
        env = make_env()
        placements = [env.placement.copy(), env.placement.copy()]
        assert env.cost_many(placements) == [env.cost(), env.cost()]

    def test_uses_objective_many_for_batches(self):
        block = five_transistor_ota()
        calls = []

        def many(ps):
            calls.append(len(ps))
            return [0.0] * len(ps)

        env = PlacementEnv(block, lambda p: 1.0, objective_many=many)
        p = env.placement
        assert env.cost_many([p.copy(), p.copy()]) == [0.0, 0.0]
        assert calls == [2]
        # Single-candidate batches stay on the scalar objective.
        assert env.cost_many([p.copy()]) == [1.0]
        assert calls == [2]
