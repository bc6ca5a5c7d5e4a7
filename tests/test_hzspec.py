import itertools

import pytest

from excspec.balmer import b_leq, b_truncation
from excspec.combinat import INF, BudgetError
from excspec.hzspec import (
    HZPrime,
    hz_admissible_subset,
    hz_base_change,
    hz_leq,
    hz_points,
    hz_poset,
    hz_prime,
)
from excspec.poset import build_poset

PRIMES = [2, 3, 5, 7, 11, 13]


class TestOrder:
    def test_examples(self):
        assert hz_leq(HZPrime(4, 2), HZPrime(2, 0))
        assert not hz_leq(HZPrime(3, 0), HZPrime(1, 0))
        assert hz_leq(HZPrime(3, 3), HZPrime(1, 3))

    def test_generic_points_only_reflexive(self):
        for k in range(1, 5):
            assert hz_leq(HZPrime(k, 0), HZPrime(k, 0))
            for l in range(1, 5):
                if l != k:
                    assert not hz_leq(HZPrime(k, 0), HZPrime(l, 0))

    def test_no_cross_characteristic_relations(self):
        assert not hz_leq(HZPrime(3, 3), HZPrime(1, 2))
        assert not hz_leq(HZPrime(1, 0), HZPrime(1, 2))

    def test_partial_order_exhaustive(self):
        pts = hz_points(8, PRIMES)
        for a in pts:
            assert hz_leq(a, a)
        for a, b in itertools.product(pts, repeat=2):
            if hz_leq(a, b) and hz_leq(b, a):
                assert a == b
        for a, b, c in itertools.product(pts, repeat=3):
            if hz_leq(a, b) and hz_leq(b, c):
                assert hz_leq(a, c)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            hz_prime(3, 0, 2)
        with pytest.raises(ValueError):
            hz_prime(3, 1, 9)


class TestBaseChange:
    def test_values(self):
        assert hz_base_change(HZPrime(2, 5)).height == INF
        assert hz_base_change(HZPrime(2, 5)).char == 5
        assert hz_base_change(HZPrime(3, 0)).height == 1

    def test_injective_and_order_embedding(self):
        primes = [2, 3, 5]
        pts = hz_points(3, primes)
        images = [hz_base_change(a) for a in pts]
        assert len(set(images)) == len(pts)
        for a, b in itertools.product(pts, repeat=2):
            assert hz_leq(a, b) == b_leq(hz_base_change(a), hz_base_change(b))

    def test_image_lands_in_truncation(self):
        trunc = b_truncation(3, [2, 3, 5], 2, include_infinity=True)
        for a in hz_points(3, [2, 3, 5]):
            assert hz_base_change(a) in trunc


class TestAdmissibleSubsets:
    def test_empty_and_full(self):
        assert hz_admissible_subset([], 3, [2])
        assert hz_admissible_subset(
            [(q.layer, q.residue) for q in hz_points(3, [2])], 3, [2]
        )

    def test_bare_generic_point_violates_closure(self):
        # (1, 0) pulls in (k, p) for every p-1 | k-1 >= 0
        assert not hz_admissible_subset([(1, 0)], 3, [2])
        assert not hz_admissible_subset([(2, 0)], 4, [3])

    def test_upward_closure_of_any_point_is_admissible(self):
        d, primes = 4, [2, 3]
        pts = hz_points(d, primes)
        for seed in pts:
            closure = {
                (a.layer, a.residue) for a in pts if hz_leq(a, seed)
            }
            assert hz_admissible_subset(closure, d, primes)

    def test_matches_specialization_closure_exhaustively(self):
        d, primes = 4, [2, 3]
        pts = hz_points(d, primes)
        for bits in range(1 << len(pts)):
            subset = [pts[i] for i in range(len(pts)) if bits >> i & 1]
            members = set(subset)
            closed = all(
                a in members
                for b in subset
                for a in pts
                if hz_leq(a, b)
            )
            got = hz_admissible_subset(
                [(q.layer, q.residue) for q in subset], d, primes
            )
            assert got == closed

    @pytest.mark.parametrize(
        "d, primes",
        [(4, [2, 3]), (3, [2, 3]), (4, [2]), (5, [3]), (6, [2]), (3, [2, 5]), (2, [2, 3, 5]),
         (5, [2]), (4, [5])],
    )
    def test_matches_the_divisibility_rule_on_every_subset(self, d, primes):
        # the closure rule spelled out by layer arithmetic: (l, 0) forces
        # (k, p) for every prime p in scope with p-1 | k-l >= 0, and
        # (l, p) forces the same for its own prime
        pts = [(q.layer, q.residue) for q in hz_points(d, primes)]
        for bits in range(1 << len(pts)):
            members = {pts[i] for i in range(len(pts)) if bits >> i & 1}
            closed = all(
                (k, p) in members
                for l, r in members
                for p in (primes if r == 0 else [r])
                for k in range(l, d + 1, p - 1)
            )
            assert hz_admissible_subset(members, d, primes) == closed, members

    def test_window_over_the_point_budget_is_refused(self):
        # 601 layers over residues 0 and 2: 1202 points > POINT_BUDGET
        with pytest.raises(BudgetError):
            hz_admissible_subset([], 601, [2])

    def test_rejects_out_of_scope_points(self):
        with pytest.raises(ValueError):
            hz_admissible_subset([(9, 2)], 3, [2])
        with pytest.raises(ValueError):
            hz_admissible_subset([(1, 7)], 3, [2])
        for d, primes in ((3, [4]), (3, [1]), (0, [2]), (3, [])):
            with pytest.raises(ValueError):
                hz_admissible_subset([], d, primes)


class TestPoset:
    @pytest.mark.parametrize("primes", [[2], [3], [2, 3], [5, 2, 7]])
    def test_matches_the_filtered_point_poset(self, primes):
        for d in range(1, 7):
            for residue in [None, 0] + primes:
                points = [
                    q for q in hz_points(d, primes) if residue is None or q.residue == residue
                ]
                expected = build_poset(((q,) for q in points), hz_leq)
                got = hz_poset(d, primes, residue)
                assert got.points == expected.points
                assert got.relation == expected.relation
                assert got.covers == expected.covers

    def test_rejects_an_out_of_scope_residue(self):
        for residue in (5, 4, 1, -1):
            with pytest.raises(ValueError) as excinfo:
                hz_poset(3, [2], residue)
            assert str(excinfo.value) == (
                f"--slice must be 0 or one of the primes, got {residue}"
            )

    def test_checks_the_window_before_the_residue(self):
        for d, primes in ((0, [2]), (3, [4]), (3, [])):
            with pytest.raises(ValueError, match="^(need d|not a prime|prime set)"):
                hz_poset(d, primes, 7)
