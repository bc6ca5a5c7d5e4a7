import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excspec.burnside import RingElement, present
from excspec.zariski import (
    ZariskiPrime,
    z_equal,
    z_leq,
    z_membership,
    z_poset,
    zariski_prime,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def all_points(d, primes):
    pts = [zariski_prime(d, i, 0) for i in range(1, d + 1)]
    pts += [zariski_prime(d, i, p) for i in range(1, d + 1) for p in primes]
    # canonicalization may collapse several (i, p); keep unique
    return sorted(set(pts))


class TestEquality:
    def test_gluing_at_two(self):
        assert z_equal(zariski_prime(3, 1, 2), zariski_prime(3, 3, 2))

    def test_no_gluing_at_three_for_adjacent_layers(self):
        assert not z_equal(zariski_prime(3, 1, 3), zariski_prime(3, 2, 3))

    def test_char_zero_points_distinct(self):
        assert not z_equal(zariski_prime(3, 1, 0), zariski_prime(3, 2, 0))

    def test_canonical_layer_is_minimal(self):
        assert zariski_prime(5, 5, 3) == ZariskiPrime(1, 3)
        assert zariski_prime(5, 4, 3) == ZariskiPrime(2, 3)
        assert zariski_prime(9, 9, 5) == ZariskiPrime(1, 5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            zariski_prime(3, 4, 2)
        with pytest.raises(ValueError):
            zariski_prime(3, 1, 6)

    def test_equivalence_relation_exhaustive(self):
        for d in (3, 8):
            pts = all_points(d, PRIMES)
            for a in pts:
                assert z_equal(a, a)
            for a, b in itertools.product(pts, repeat=2):
                assert z_equal(a, b) == z_equal(b, a)
                # canonical points: equality is structural
                assert z_equal(a, b) == (a == b)


class TestOrder:
    def test_examples(self):
        assert z_leq(zariski_prime(3, 2, 0), zariski_prime(3, 2, 5))
        assert z_leq(zariski_prime(3, 1, 0), zariski_prime(3, 3, 2))
        assert not z_leq(zariski_prime(3, 3, 5), zariski_prime(3, 1, 0))

    def test_partial_order_exhaustive(self):
        for d in (4, 8):
            pts = all_points(d, PRIMES)
            for a in pts:
                assert z_leq(a, a)
            for a, b in itertools.product(pts, repeat=2):
                if z_leq(a, b) and z_leq(b, a):
                    assert a == b
            for a, b, c in itertools.product(pts, repeat=3):
                if z_leq(a, b) and z_leq(b, c):
                    assert z_leq(a, c)

    def test_height_one(self):
        # no strict chain of length two anywhere
        pts = all_points(6, PRIMES)
        for a, b, c in itertools.product(pts, repeat=3):
            if a != b and b != c and z_leq(a, b) and z_leq(b, c):
                pytest.fail(f"strict chain {a} < {b} < {c}")


class TestMembership:
    def test_examples(self):
        pres = present(3)
        shifted = pres.basis(3) - pres.one().scale(6)
        assert z_membership(pres, shifted, zariski_prime(3, 3, 0))
        for q in all_points(3, [2, 3, 5]):
            assert not z_membership(pres, pres.one(), q)
        for p in (2, 3, 5):
            for i in range(1, 4):
                assert z_membership(pres, pres.one().scale(p), zariski_prime(3, i, p))

    @given(
        coeffs=st.tuples(*([st.integers(min_value=-9, max_value=9)] * 6)),
    )
    @settings(max_examples=60, deadline=None)
    def test_glued_primes_contain_same_elements(self, coeffs):
        pres = present(6)
        a = RingElement(coeffs)
        for p in (2, 3, 5, 7):
            for i in range(1, 7):
                for j in range(1, 7):
                    if (i - j) % (p - 1) == 0:
                        # membership may be probed at any layer of the class
                        assert z_membership(
                            pres, a, ZariskiPrime(i, p)
                        ) == z_membership(pres, a, ZariskiPrime(j, p))

    @given(
        a=st.tuples(*([st.integers(min_value=-5, max_value=5)] * 4)),
        b=st.tuples(*([st.integers(min_value=-5, max_value=5)] * 4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_prime_ideal_axiom(self, a, b):
        pres = present(4)
        x, y = RingElement(a), RingElement(b)
        xy = pres.multiply(x, y)
        for q in all_points(4, [2, 3, 5]):
            assert z_membership(pres, xy, q) == (
                z_membership(pres, x, q) or z_membership(pres, y, q)
            )


class TestPoset:
    def test_rank_three_char_two(self):
        poset = z_poset(3, [2])
        assert len(poset.minimal()) == 3
        assert len(poset.maximal()) == 1
        assert len(poset.covers) == 3

    def test_rank_three_char_three(self):
        poset = z_poset(3, [3])
        assert len(poset.minimal()) == 3
        assert len(poset.maximal()) == 2

    def test_rank_one_is_restricted_integer_spectrum(self):
        poset = z_poset(1, [2, 3, 5])
        assert poset.points == (
            ZariskiPrime(1, 0),
            ZariskiPrime(1, 2),
            ZariskiPrime(1, 3),
            ZariskiPrime(1, 5),
        )
        assert len(poset.covers) == 3
        assert poset.minimal() == [ZariskiPrime(1, 0)]

    def test_points_and_covers_ascending(self):
        for d, primes in [
            (6, [5, 3, 2]), (4, [7, 2, 2]), (3, [13]), (14, PRIMES), (13, [2, 3]), (11, [13, 5]),
        ]:
            poset = z_poset(d, primes)
            assert list(poset.points) == all_points(d, primes)
            assert all(a < b for a, b in zip(poset.covers, poset.covers[1:]))

    def test_rejects_empty_or_composite(self):
        with pytest.raises(ValueError):
            z_poset(3, [])
        with pytest.raises(ValueError):
            z_poset(3, [4])
