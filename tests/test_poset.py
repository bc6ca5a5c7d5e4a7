import itertools
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excspec import poset
from excspec.balmer import BalmerPrime, b_leq, b_truncation
from excspec.combinat import BudgetError
from excspec.hzspec import hz_leq, hz_poset
from excspec.poset import Poset, build_poset
from excspec.zariski import z_leq, z_poset

PRIMES_TO_13 = [2, 3, 5, 7, 11, 13]


def covers_by_definition(pos: Poset) -> tuple:
    """Index pairs (a, b), ascending, with a < b and no c strictly
    between, read off `Poset.leq` alone."""
    pts, leq = pos.points, pos.leq
    return tuple(
        (i, j)
        for i, a in enumerate(pts)
        for j, b in enumerate(pts)
        if i != j
        and leq(a, b)
        and not any(c != a and c != b and leq(a, c) and leq(c, b) for c in pts)
    )


def assert_matches_definitions(pos: Poset) -> None:
    pts, leq = pos.points, pos.leq
    assert pos.covers == covers_by_definition(pos)
    assert pos.minimal() == [
        b for b in pts if not any(a != b and leq(a, b) for a in pts)
    ]
    assert pos.maximal() == [
        a for a in pts if not any(a != b and leq(a, b) for b in pts)
    ]
    for seeds in [[], pts[::2], pts[1::3], *([s] for s in pts)]:
        assert pos.down_closure(seeds) == frozenset(
            a for a in pts if any(leq(a, s) for s in seeds)
        )


# the truncations of acceptance criteria 7-9 and 11
CRITERIA_TRUNCATIONS = sorted(
    {(d, (2, 3, 5, 7), hmax, True) for d in range(1, 7) for hmax in (1, 6)}
    | {(m, (2, 3), 4, True) for m in range(1, 6)}
    | {(4, (2, 3, 5), 2, True)}
)


class TestCoversAndDownSetsMatchDefinitions:
    @pytest.mark.parametrize("args", CRITERIA_TRUNCATIONS, ids=str)
    def test_criteria_truncations(self, args):
        assert_matches_definitions(b_truncation(*args))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_zariski(self, d):
        assert_matches_definitions(z_poset(d, PRIMES_TO_13))

    @pytest.mark.parametrize("residue", [None, 0, 2, 13])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_hz(self, d, residue):
        assert_matches_definitions(hz_poset(d, PRIMES_TO_13, residue))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_finite_orders(self, data):
        """The transitive closure of a random DAG on range(n), its points
        relabelled so that the order does not follow the index order."""
        n = data.draw(st.integers(0, 40))
        vertex = st.integers(0, max(n - 1, 0))
        edges = data.draw(st.sets(st.tuples(vertex, vertex)))
        label = data.draw(st.permutations(range(n)))
        below = [{a for a, b in edges if a < b == c} for c in range(n)]
        for c in range(n):  # every a in below[c] is < c, so already closed
            for a in list(below[c]):
                below[c] |= below[a]
        relation = frozenset((label[a], label[c]) for c in range(n) for a in below[c])
        above = [0] * n
        for a, c in relation:
            above[a] |= 1 << c
        pos = Poset(points=tuple(range(n)), above=tuple(above))
        assert pos.relation == tuple(sorted(relation))
        assert_matches_definitions(pos)


class TestRelationMatchesPredicate:
    """`relation` against the module's own order predicate, which never
    reads the stored bitsets that `Poset.leq` reads."""

    @staticmethod
    def assert_relation_matches(pos: Poset, leq) -> None:
        pts, relation = pos.points, pos.relation
        assert all(x < y for x, y in zip(relation, relation[1:]))
        assert relation == tuple(
            (i, j)
            for i, a in enumerate(pts)
            for j, b in enumerate(pts)
            if i != j and leq(a, b)
        )

    @pytest.mark.parametrize("args", CRITERIA_TRUNCATIONS, ids=str)
    def test_criteria_truncations(self, args):
        self.assert_relation_matches(b_truncation(*args), b_leq)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_zariski(self, d):
        self.assert_relation_matches(z_poset(d, PRIMES_TO_13), z_leq)

    @pytest.mark.parametrize("residue", [None, 0, 2, 13])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_hz(self, d, residue):
        self.assert_relation_matches(hz_poset(d, PRIMES_TO_13, residue), hz_leq)


class TestPointsOutside:
    trunc = b_truncation(2, [2], 2)
    outside = BalmerPrime(9, 2, 2)

    def test_leq_is_false(self):
        t, x = self.trunc, self.outside
        assert x not in t
        assert not t.leq(x, x)
        assert not t.leq(x, t.points[0])
        assert not t.leq(t.points[0], x)

    def test_down_closure_names_the_point(self):
        with pytest.raises(ValueError, match=re.escape(str(self.outside))):
            self.trunc.down_closure([self.trunc.points[0], self.outside])


def test_covers_of_a_total_order_at_the_budget():
    total = build_poset(range(poset.POINT_BUDGET), operator.le)
    assert total.covers == tuple((i, i + 1) for i in range(poset.POINT_BUDGET - 1))
    assert total.minimal() == [0]
    assert total.maximal() == [poset.POINT_BUDGET - 1]


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
