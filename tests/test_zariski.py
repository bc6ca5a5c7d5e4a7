import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excspec.burnside import RingElement, present
from excspec.zariski import (
    ZariskiPrime,
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
        assert zariski_prime(3, 1, 2) == zariski_prime(3, 3, 2)

    def test_no_gluing_at_three_for_adjacent_layers(self):
        assert zariski_prime(3, 1, 3) != zariski_prime(3, 2, 3)

    def test_char_zero_points_distinct(self):
        assert zariski_prime(3, 1, 0) != zariski_prime(3, 2, 0)

    def test_canonical_layer_is_minimal(self):
        assert zariski_prime(5, 5, 3) == ZariskiPrime(1, 3)
        assert zariski_prime(5, 4, 3) == ZariskiPrime(2, 3)
        assert zariski_prime(9, 9, 5) == ZariskiPrime(1, 5)

    def test_raw_glued_point_is_in_the_poset(self):
        assert ZariskiPrime(3, 2) in z_poset(3, [2])

    def test_char_one_constructs(self):
        # canonical_layer leaves a char below 2 alone, so nothing divides by 0
        assert ZariskiPrime(1, 1).layer == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            zariski_prime(3, 4, 2)
        with pytest.raises(ValueError):
            zariski_prime(3, 1, 6)

    def test_equivalence_relation_exhaustive(self):
        # every spelling (layer, char): == is the gluing relation, equal
        # chars with layers equal, or congruent mod char-1 at char p
        for d in (3, 8):
            raw = [(i, c) for i in range(1, d + 1) for c in [0] + PRIMES]
            for (i, p), (j, q) in itertools.product(raw, repeat=2):
                a, b = zariski_prime(d, i, p), zariski_prime(d, j, q)
                glued = p == q and (i == j or (p > 0 and (i - j) % (p - 1) == 0))
                assert (a == b) == glued, (a, b)
                if glued:
                    assert hash(a) == hash(b)


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
        ghost = pres.ghost(a)
        for p in (2, 3, 5, 7):
            for i in range(1, 7):
                for j in range(1, 7):
                    if (i - j) % (p - 1) == 0:
                        # the ghost components of a glued pair vanish mod p
                        # together, so the glued point has one answer
                        assert (ghost[i - 1] % p == 0) == (ghost[j - 1] % p == 0)
                assert z_membership(pres, a, zariski_prime(6, i, p)) == (
                    ghost[i - 1] % p == 0
                )

    def test_rejects_layers_out_of_range(self):
        pres = present(6)
        with pytest.raises(ValueError):
            z_membership(pres, pres.one(), ZariskiPrime(9, 3))
        with pytest.raises(ValueError):
            z_membership(pres, pres.one(), ZariskiPrime(0, 2))

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
