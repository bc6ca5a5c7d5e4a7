import itertools

import pytest

from excspec import poset
from excspec.combinat import BudgetError
from excspec.hzspec import hz_poset
from excspec.poset import build_poset
from excspec.zariski import z_poset


class TestBudget:
    # b_truncation's case is tests/test_balmer.py's
    # test_budget_bounds_the_computed_point_count
    @pytest.mark.parametrize(
        "build, n_points",
        [
            (lambda: z_poset(7, [2, 3, 5]), 7 + 1 + 2 + 4),
            (lambda: hz_poset(5, [2, 3]), 5 * 3),
            (lambda: hz_poset(5, [2, 3], 3), 5),
        ],
        ids=["zariski", "hz", "hz-slice"],
    )
    def test_every_spectrum_is_admitted_up_to_its_point_count(
        self, monkeypatch, build, n_points
    ):
        monkeypatch.setattr(poset, "POINT_BUDGET", n_points)
        assert len(build().points) == n_points
        monkeypatch.setattr(poset, "POINT_BUDGET", n_points - 1)
        with pytest.raises(BudgetError):
            build()

    def test_refuses_before_comparing_any_pair(self, monkeypatch):
        def leq(a, b):
            raise AssertionError("a pair was compared")

        monkeypatch.setattr(poset, "POINT_BUDGET", 5)
        nodes = itertools.count()
        with pytest.raises(BudgetError):
            build_poset(nodes, leq)
        assert next(nodes) == 6  # read budget + 1 points, no more
