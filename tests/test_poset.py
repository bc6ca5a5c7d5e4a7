import itertools
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excspec import balmer, poset
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


# windows beyond the criteria: long columns (1200 points, the whole
# budget), primes above d, and columns of one point or none
BISECTION_WINDOWS = [
    (600, (2,), 2, False),
    (4, (2,), 299, True),
    (3, (5, 7), 4, True),
    (5, (2, 3), 1, True),
    (5, (2, 3), 1, False),
]


class TestRelationMatchesPredicate:
    """`relation` against the module's own order predicate over every
    ordered pair, which never reads the stored bitsets that `Poset.leq`
    reads: the flat sweep, oracle for `b_truncation`'s column bisection
    and equal to `build_poset`'s sweep by definition."""

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

    @pytest.mark.parametrize("args", CRITERIA_TRUNCATIONS + BISECTION_WINDOWS, ids=str)
    def test_criteria_truncations(self, args):
        self.assert_relation_matches(b_truncation(*args), b_leq)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_zariski(self, d):
        self.assert_relation_matches(z_poset(d, PRIMES_TO_13), z_leq)

    @pytest.mark.parametrize("residue", [None, 0, 2, 13])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_hz(self, d, residue):
        self.assert_relation_matches(hz_poset(d, PRIMES_TO_13, residue), hz_leq)

    def test_sweep_compares_every_ordered_pair_once(self):
        pairs = []

        def leq(a, b):
            pairs.append((a, b))
            return a <= b

        build_poset(range(6), leq)
        assert sorted(pairs) == [(a, b) for a in range(6) for b in range(6) if a != b]

    @pytest.mark.parametrize("args", CRITERIA_TRUNCATIONS + BISECTION_WINDOWS, ids=str)
    def test_bisected_columns_are_top_down_chains(self, monkeypatch, args):
        """Bisection is exact only on a chain listed from the top down:
        every column that b_truncation probes must be the contiguous run
        of its (layer, char) points, each under the one before, headed by
        the layer's rational point."""
        probed = set()

        def spy(a, b):
            probed.add(b)
            return b_leq(a, b)

        monkeypatch.setattr(balmer, "b_leq", spy)
        trunc = b_truncation(*args)
        columns = {(pt.layer, pt.char) for pt in trunc.points if pt.height != 1}
        assert {(b.layer, b.char) for b in probed if b.height != 1} == columns
        for layer, char in columns:
            run = [
                i for i, pt in enumerate(trunc.points) if (pt.layer, pt.char) == (layer, char)
            ]
            assert run == list(range(run[0], run[-1] + 1))
            chain = [BalmerPrime(layer, 0, 1), *(trunc.points[i] for i in run)]
            assert all(b_leq(b, a) for a, b in zip(chain, chain[1:]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_orders(self, data):
        """A random order on range(n), in which x < y only if x < y as
        ints, swept with its points in a random order."""
        n = data.draw(st.integers(0, 30))
        vertex = st.integers(0, max(n - 1, 0))
        edges = data.draw(st.sets(st.tuples(vertex, vertex)))
        order = data.draw(st.permutations(range(n)))
        up = [{b for a, b in edges if a == c < b} for c in range(n)]
        for c in reversed(range(n)):  # every b in up[c] is > c, so already closed
            for b in list(up[c]):
                up[c] |= up[b]

        def leq(a, b):
            return a == b or b in up[a]

        pos = build_poset(order, leq)
        assert pos.points == tuple(order)
        self.assert_relation_matches(pos, leq)


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

    @pytest.mark.parametrize(
        "d, primes, hmax, inf",
        [
            (2, (2,), 2, True),
            (3, (2, 5), 3, False),
            (4, (2, 3), 1, True),
            (1, (2,), 10**12, True),
        ],
    )
    def test_oversized_truncation_is_refused_before_any_comparison(
        self, monkeypatch, d, primes, hmax, inf
    ):
        """b_truncation counts its points in closed form and checks them
        against POINT_BUDGET as it reads at call time: one point fewer
        than the window is refused with no b_leq or delta_p call."""
        calls = []

        def spy(fn):
            def counted(*args):
                calls.append(fn.__name__)
                return fn(*args)

            return counted

        monkeypatch.setattr(balmer, "b_leq", spy(balmer.b_leq))
        monkeypatch.setattr(balmer, "delta_p", spy(balmer.delta_p))
        n_points = d * (1 + len(primes) * (hmax - 1 + inf))
        monkeypatch.setattr(poset, "POINT_BUDGET", n_points - 1)
        with pytest.raises(BudgetError, match=f"more than {n_points - 1} points"):
            b_truncation(d, primes, hmax, inf)
        assert calls == []
