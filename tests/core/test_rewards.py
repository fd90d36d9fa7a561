"""Tests for reward shaping."""

import pytest

from repro.core import shaped_reward
from repro.core.rewards import TARGET_BONUS


class TestShapedReward:
    def test_improvement_positive(self):
        assert shaped_reward(2.0, 1.0, reference_cost=2.0) == pytest.approx(0.5)

    def test_worsening_negative(self):
        assert shaped_reward(1.0, 2.0, reference_cost=2.0) == pytest.approx(-0.5)

    def test_no_change_zero(self):
        assert shaped_reward(1.0, 1.0, reference_cost=2.0) == 0.0

    def test_target_bonus_on_crossing(self):
        r = shaped_reward(2.0, 0.9, reference_cost=2.0, target=1.0)
        assert TARGET_BONUS == 5.0
        assert r == pytest.approx(0.55 + 5.0)

    def test_no_bonus_when_already_below_target(self):
        r = shaped_reward(0.8, 0.7, reference_cost=2.0, target=1.0)
        assert r == pytest.approx(0.05)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError, match="reference_cost"):
            shaped_reward(1.0, 0.5, reference_cost=0.0)
