import itertools

import pytest

from excspec.balmer import b_leq, b_truncation
from excspec.combinat import INF
from excspec.hzspec import (
    HZPrime,
    hz_admissible_subset,
    hz_base_change,
    hz_leq,
    hz_points,
    hz_prime,
)

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
        assert hz_base_change(HZPrime(2, 5)).height is INF
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

    def test_rejects_out_of_scope_points(self):
        with pytest.raises(ValueError):
            hz_admissible_subset([(9, 2)], 3, [2])
        with pytest.raises(ValueError):
            hz_admissible_subset([(1, 7)], 3, [2])
        for d, primes in ((3, [4]), (3, [1]), (0, [2]), (3, [])):
            with pytest.raises(ValueError):
                hz_admissible_subset([], d, primes)
