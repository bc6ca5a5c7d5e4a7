import itertools

import pytest

from excspec.balmer import (
    BalmerPrime,
    b_equal,
    b_leq,
    b_truncation,
    balmer_prime,
    generator_support,
    geometric_blueshift,
    open_embedding_check,
    rho,
    smith_holds,
    tate_blueshift,
)
from excspec.combinat import INF, shortest_ppp_chain
from excspec.zariski import ZariskiPrime, z_leq


class TestPoints:
    def test_height_one_forgets_char(self):
        assert balmer_prime(3, 2, 2, 1) == balmer_prime(3, 2, 3, 1)
        assert balmer_prime(3, 2, 2, 1).char == 0

    def test_equality(self):
        assert b_equal(balmer_prime(3, 2, 2, 1), balmer_prime(3, 2, 3, 1))
        assert not b_equal(balmer_prime(3, 2, 2, 3), balmer_prime(3, 2, 3, 3))
        assert not b_equal(balmer_prime(3, 1, 2, 2), balmer_prime(3, 2, 2, 2))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            balmer_prime(3, 4, 2, 2)
        with pytest.raises(ValueError):
            balmer_prime(3, 1, 4, 2)
        with pytest.raises(ValueError):
            balmer_prime(3, 1, 2, 0)


class TestOrder:
    def test_one_step_blueshift(self):
        for h in (1, 2, 5):
            assert b_leq(balmer_prime(4, 4, 2, h + 1), balmer_prime(4, 2, 2, h))

    def test_two_step_blueshift(self):
        for h in (1, 2, 4):
            assert b_leq(balmer_prime(3, 3, 2, h + 2), balmer_prime(3, 1, 2, h))
            assert not b_leq(balmer_prime(3, 3, 2, h + 1), balmer_prime(3, 1, 2, h))

    def test_infinity_target_needs_infinity_source(self):
        target = balmer_prime(3, 3, 2, INF)
        for n in (1, 2, 9):
            assert not b_leq(balmer_prime(3, 3, 2, n), target)
        assert b_leq(balmer_prime(3, 3, 2, INF), target)

    def test_vertical_slice_matches_chromatic_order(self):
        # fixed layer: containment iff the height drops and, above
        # height one, the chars agree
        heights = [1, 2, 3, INF]
        for k in (1, 2, 3):
            for p, q, ha, hb in itertools.product((2, 3), (2, 3), heights, heights):
                a = balmer_prime(3, k, q, ha)
                b = balmer_prime(3, k, p, hb)
                if ha == 1:
                    expected = hb == 1
                else:
                    expected = ha >= hb and (hb == 1 or q == p)
                assert b_leq(a, b) == expected, (a, b)

    def test_partial_order_small(self):
        trunc = b_truncation(3, [2, 3], 3, True)
        pts = trunc.points
        for a in pts:
            assert b_leq(a, a)
        for a, b in itertools.product(pts, repeat=2):
            if b_leq(a, b) and b_leq(b, a):
                assert a == b
        for a, b, c in itertools.product(pts, repeat=3):
            if b_leq(a, b) and b_leq(b, c):
                assert b_leq(a, c)

    def test_height_one_point_lies_under_no_other_point(self):
        # 1 >= h + delta_p(k, l) forces h = 1 and k = l, so no prime
        # choice for the rational point's char can make it a source
        trunc = b_truncation(5, [2, 3, 5], 3, True)
        rational = [a for a in trunc.points if a.height == 1]
        assert len(rational) == 5
        for a in rational:
            for b in trunc.points:
                assert trunc.leq(a, b) == (a == b), (a, b)
                for p in (0, 2, 3, 5):
                    source = BalmerPrime(a.layer, p, 1)
                    assert b_leq(source, b) == (a == b), (source, b)

    def test_monotonicity(self):
        trunc = b_truncation(4, [2, 3], 4, True)
        for a, b in itertools.product(trunc.points, repeat=2):
            if a != b and trunc.leq(a, b):
                assert a.layer >= b.layer
                assert a.height >= b.height


class TestTruncation:
    def test_point_count(self):
        for d, primes, hmax, inf in [
            (1, [2], 3, True),
            (3, [2, 3, 5], 2, True),
            (2, [2], 5, False),
        ]:
            trunc = b_truncation(d, primes, hmax, inf)
            expected = d * (1 + len(primes) * (hmax - 1) + len(primes) * int(inf))
            assert len(trunc.points) == expected

    def test_rank_one_is_a_chain(self):
        trunc = b_truncation(1, [2], 3, True)
        assert len(trunc.points) == 4
        # linear: relation is a total order on 4 points
        assert len(trunc.relation) == 6
        assert len(trunc.covers) == 3

    def test_rank_two_shape(self):
        trunc = b_truncation(2, [2], 4, True)
        for h in (1, 2, 3):
            assert trunc.leq(
                balmer_prime(2, 2, 2, h + 1), balmer_prime(2, 1, 2, h)
            )
            assert not trunc.leq(
                balmer_prime(2, 2, 2, h), balmer_prime(2, 1, 2, h)
            )

    def test_contains(self):
        trunc = b_truncation(2, [2], 2, False)
        assert balmer_prime(2, 1, 2, 2) in trunc
        assert balmer_prime(2, 1, 2, INF) not in trunc


class TestComparisonMap:
    def test_examples(self):
        assert rho(balmer_prime(3, 3, 2, INF)) == ZariskiPrime(1, 2)
        assert rho(balmer_prime(3, 2, 0, 1)) == ZariskiPrime(2, 0)
        assert rho(balmer_prime(3, 2, 3, 5)) == ZariskiPrime(2, 3)

    def test_order_reversal(self):
        trunc = b_truncation(4, [2, 3], 3, True)
        for a, b in itertools.product(trunc.points, repeat=2):
            if trunc.leq(a, b):
                assert z_leq(rho(b), rho(a)), (a, b)


class TestBlueshiftNumbers:
    def test_tate_examples(self):
        for h in (1, 2, 7):
            assert tate_blueshift(2, 4, 2, h) == 1
            assert tate_blueshift(2, 3, 1, h) == h
            assert tate_blueshift(5, 6, 2, h) == 1
            assert tate_blueshift(3, 5, 5, h) == h

    def test_geometric_examples(self):
        for p in (2, 3, 5):
            for l in (1, 2, 6):
                assert geometric_blueshift(p, l, l) == 0
        assert geometric_blueshift(2, 4, 2) == 1
        assert geometric_blueshift(2, 3, 1) == 2

    def test_geometric_requires_divisibility(self):
        with pytest.raises(ValueError):
            geometric_blueshift(5, 7, 4)

    def test_geometric_is_min_chain_sum_of_tate_steps(self):
        for p in (2, 3, 5):
            for k in range(1, 17):
                for l in range(1, k + 1):
                    if (k - l) % (p - 1) != 0:
                        continue
                    chain = shortest_ppp_chain(p, k, l)
                    assert chain is not None
                    total = sum(
                        tate_blueshift(p, a, b, 5) for a, b in zip(chain, chain[1:])
                    )
                    assert geometric_blueshift(p, k, l) == total


class TestSupportsAndEmbeddings:
    def test_unit_generator_has_full_support(self):
        trunc = b_truncation(3, [2, 3], 3, True)
        assert generator_support(trunc, 1) == frozenset(trunc.points)

    def test_top_generator_supported_on_top_layer(self):
        trunc = b_truncation(3, [2, 3], 3, True)
        support = generator_support(trunc, 3)
        assert support == frozenset(q for q in trunc.points if q.layer == 3)

    def test_supports_closed_and_complements_open(self):
        trunc = b_truncation(4, [2, 3], 3, True)
        for k in range(1, 5):
            support = generator_support(trunc, k)
            # supports are specialization-closed: anything contained in a
            # support point is again in the support
            for b in support:
                for a in trunc.points:
                    if trunc.leq(a, b):
                        assert a in support
            # so complements are closed under passing to containing primes
            complement = set(trunc.points) - support
            for a in complement:
                for b in trunc.points:
                    if trunc.leq(a, b):
                        assert b in complement

    def test_open_embedding(self):
        assert open_embedding_check(3, 3, [2], 3)
        assert open_embedding_check(1, 3, [2, 3], 3)
        assert open_embedding_check(2, 4, [2, 3], 4)


class TestSmith:
    def test_reflexive(self):
        for d, p, l, h in [(4, 2, 2, 0), (4, 2, 2, 3), (3, 5, 1, 2)]:
            assert smith_holds(d, p, l, l, h, h)

    def test_one_step(self):
        for h in range(0, 5):
            assert smith_holds(4, 2, 4, 2, h + 1, h)
            assert not smith_holds(4, 2, 4, 2, h, h)

    def test_two_step(self):
        for h in range(0, 5):
            assert not smith_holds(3, 2, 3, 1, h + 1, h)
            assert smith_holds(3, 2, 3, 1, h + 2, h)

    def test_infinite_heights(self):
        assert smith_holds(4, 2, 4, 2, INF, INF)
        assert smith_holds(4, 2, 4, 2, INF, 3)
        assert not smith_holds(4, 2, 4, 2, 3, INF)
