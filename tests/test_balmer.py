import dataclasses
import itertools
import sys

import pytest

from excspec import balmer, poset
from excspec.balmer import (
    BalmerPrime,
    b_leq,
    b_truncation,
    balmer_prime,
    generator_support,
    geometric_blueshift,
    open_embedding_check,
    rho,
    smith_holds,
    smith_points,
    tate_blueshift,
)
from excspec.combinat import INF, BudgetError, shortest_ppp_chain
from excspec.zariski import ZariskiPrime, canonical_layer, z_leq, z_poset


class TestPoints:
    def test_height_one_forgets_char(self):
        assert balmer_prime(3, 2, 2, 1) == balmer_prime(3, 2, 3, 1)
        assert balmer_prime(3, 2, 2, 1).char == 0

    def test_equality(self):
        assert balmer_prime(3, 2, 2, 1) == balmer_prime(3, 2, 3, 1)
        assert balmer_prime(3, 2, 2, 3) != balmer_prime(3, 2, 3, 3)
        assert balmer_prime(3, 1, 2, 2) != balmer_prime(3, 2, 2, 2)

    @pytest.mark.parametrize("k, p", [(1, 2), (2, 3), (3, 7)])
    def test_raw_rational_point_is_the_canonical_one(self, k, p):
        raw = BalmerPrime(k, p, 1)
        assert raw == BalmerPrime(k, 0, 1)
        assert hash(raw) == hash(BalmerPrime(k, 0, 1))

    def test_raw_rational_point_is_in_its_truncation(self):
        assert BalmerPrime(2, 3, 1) in b_truncation(3, [2, 3], 2)

    def test_truncation_order_is_b_leq_on_raw_spellings(self):
        trunc = b_truncation(3, [2, 3], 3)
        spellings = [
            BalmerPrime(a.layer, p, 1) if a.height == 1 else a
            for a in trunc.points
            for p in (0, 2, 3)
        ]
        for a, b in itertools.product(spellings, repeat=2):
            assert trunc.leq(a, b) == b_leq(a, b), (a, b)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            balmer_prime(3, 4, 2, 2)
        with pytest.raises(ValueError):
            balmer_prime(3, 1, 4, 2)
        with pytest.raises(ValueError):
            balmer_prime(3, 1, 2, 0)

    @pytest.mark.parametrize("height", [2.5, 1.0, True, False, 0, -1, "2"])
    def test_rejects_a_height_neither_a_positive_int_nor_inf(self, height):
        with pytest.raises(ValueError, match="height must be an int >= 1 or INF"):
            balmer_prime(3, 1, 2, height)

    def test_smith_rejects_a_fractional_height(self):
        # the message names the height given, not the point's height
        with pytest.raises(ValueError, match="got 1.5"):
            smith_holds(4, 2, 4, 2, 1.5, 0)
        with pytest.raises(ValueError, match="got 1.5"):
            smith_points(4, 2, 4, 2, 0, 1.5)

    def test_rejects_a_char_neither_zero_nor_prime_at_every_height(self):
        for height in (1, 2, 5, INF):
            for char in (4, 1, -3):
                with pytest.raises(ValueError, match="char must be prime"):
                    balmer_prime(3, 1, char, height)
        # char 0 names the rational point only
        for height in (2, 5, INF):
            with pytest.raises(ValueError, match="char must be prime"):
                balmer_prime(3, 1, 0, height)
        assert balmer_prime(3, 1, 0, 1) == balmer_prime(3, 1, 5, 1)


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

    def test_points_and_covers_come_in_order(self):
        for d, primes, hmax, inf in [
            (3, [5, 2, 3, 2], 3, True),
            (4, [3, 2], 1, True),
            (2, [7, 2], 4, False),
        ]:
            trunc = b_truncation(d, primes, hmax, inf)
            keys = [(q.layer, q.char, q.height) for q in trunc.points]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(a < b for a, b in zip(trunc.covers, trunc.covers[1:]))

    def test_budget_bounds_the_computed_point_count(self, monkeypatch):
        for d, primes, hmax, inf in [(2, [2], 2, True), (3, [2, 5], 3, False)]:
            n_points = d * (1 + len(primes) * (hmax - 1 + inf))
            monkeypatch.setattr(poset, "POINT_BUDGET", n_points)
            assert len(b_truncation(d, primes, hmax, inf).points) == n_points
            monkeypatch.setattr(poset, "POINT_BUDGET", n_points - 1)
            with pytest.raises(BudgetError):
                b_truncation(d, primes, hmax, inf)

    def test_reads_delta_only_through_b_leq(self, monkeypatch):
        # the reachable columns come from layer_class, so a window whose
        # columns are empty makes no delta_p call at all
        callers = []
        delta_p = balmer.delta_p

        def traced(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return delta_p(*args)

        monkeypatch.setattr(balmer, "delta_p", traced)
        b_truncation(200, [2], 1, include_infinity=False)
        assert callers == []
        b_truncation(14, (2, 3, 5, 7, 11, 13), 10)
        assert callers and set(callers) == {"b_leq"}

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

    @pytest.mark.parametrize(
        "d, primes, hmax, inf",
        [(3, [2, 3], 3, True), (5, [2, 3, 5], 2, True), (7, [2, 7], 3, False)],
    )
    def test_matches_the_two_branch_formula(self, d, primes, hmax, inf):
        # the two-branch formula, canonicalising by hand: height 1 on
        # the char-0 layer point, else the glued char-p point
        def oracle(a):
            if a.height == 1:
                return ZariskiPrime(a.layer, 0)
            return ZariskiPrime(canonical_layer(a.layer, a.char), a.char)

        for a in b_truncation(d, primes, hmax, inf).points:
            assert rho(a) == oracle(a), a

    def test_order_reversal(self):
        trunc = b_truncation(4, [2, 3], 3, True)
        for a, b in itertools.product(trunc.points, repeat=2):
            if trunc.leq(a, b):
                assert z_leq(rho(b), rho(a)), (a, b)


def same_layer_leq(a, b):
    """Inside one layer: each prime's chromatic chain, listed from
    height infinity up to height 2, sits under the rational point."""
    return a == b or b.height == 1 or (a.char == b.char and a.height >= b.height)


class TestLowDegreeTheorems:
    """The degree-1 and degree-2 spectra stated as the published
    theorems, without the blueshift distance."""

    @pytest.mark.parametrize("primes", [[2], [2, 3], [2, 3, 5, 7]])
    @pytest.mark.parametrize("hmax, inf", [(1, True), (4, True), (5, False)])
    def test_degree_one_is_hopkins_smith(self, primes, hmax, inf):
        # one chromatic chain per prime, joined at the rational point
        trunc = b_truncation(1, primes, hmax, inf)
        heights = list(range(2, hmax + 1)) + ([INF] if inf else [])
        assert set(trunc.points) == {BalmerPrime(1, 0, 1)} | {
            BalmerPrime(1, p, h) for p in primes for h in heights
        }
        for a, b in itertools.product(trunc.points, repeat=2):
            assert trunc.leq(a, b) == same_layer_leq(a, b), (a, b)

    @pytest.mark.parametrize("primes", [[2], [3], [2, 3, 5]])
    @pytest.mark.parametrize("hmax, inf", [(1, True), (4, True), (5, False)])
    def test_degree_two_is_the_c2_spectrum(self, primes, hmax, inf):
        # at p = 2 the layer-2 point of height n+1 lies in the layer-1
        # point of height n (the rational point when n = 1); at odd p
        # the two layers do not meet
        trunc = b_truncation(2, primes, hmax, inf)
        for a, b in itertools.product(trunc.points, repeat=2):
            if a.layer == b.layer:
                expected = same_layer_leq(a, b)
            else:
                expected = (
                    (a.layer, b.layer) == (2, 1)
                    and a.char == 2
                    and b.char in (0, 2)
                    and a.height >= b.height + 1
                )
            assert trunc.leq(a, b) == expected, (a, b)


class TestRhoOntoZariski:
    @pytest.mark.parametrize("primes", [[2], [3], [2, 3], [2, 3, 5]])
    def test_rho_maps_every_truncation_onto_z_poset_reversing_order(self, primes):
        for d in range(1, 9):
            for hmax, inf in ((1, True), (3, False), (2, True)):
                trunc = b_truncation(d, primes, hmax, inf)
                zpos = z_poset(d, primes)
                assert {rho(a) for a in trunc.points} == set(zpos.points)
                for i, j in trunc.relation:
                    a, b = trunc.points[i], trunc.points[j]
                    assert zpos.leq(rho(b), rho(a)), (a, b)


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


EMBEDDING_PRIMES = [(2,), (3,), (5,), (2, 3), (2, 3, 5, 7)]


def pairwise_open_embedding(m, d, primes, hmax, inf) -> bool:
    """Oracle for open_embedding_check, point by point: every degree-m
    point is a degree-d point, the two orders agree on every pair of
    them, and their image is the complement of the support of the
    generators above layer m."""
    small = balmer.b_truncation(m, primes, hmax, inf)
    big = balmer.b_truncation(d, primes, hmax, inf)
    if not all(a in big for a in small.points):
        return False
    if any(
        small.leq(a, b) != big.leq(a, b)
        for a, b in itertools.product(small.points, repeat=2)
    ):
        return False
    outside = generator_support(big, m + 1) if m < d else frozenset()
    return set(small.points) == set(big.points) - outside


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

    @pytest.mark.parametrize("primes", EMBEDDING_PRIMES)
    def test_prefix_check_matches_the_pairwise_oracle(self, primes):
        for d, hmax, inf in itertools.product(range(1, 8), (1, 2, 4), (True, False)):
            for m in range(1, d + 1):
                window = (m, d, primes, hmax, inf)
                assert pairwise_open_embedding(*window), window
                assert open_embedding_check(*window), window

    @pytest.mark.parametrize("damage", ["drop a relation", "misplace a point"])
    def test_both_reject_a_damaged_big_window(self, monkeypatch, damage):
        # the degree-3 truncation, damaged where the degree-2 one sits in it
        build = balmer.b_truncation

        def damaged(d, *args):
            trunc = build(d, *args)
            if d < 3:
                return trunc
            if damage == "drop a relation":
                i, j = trunc.relation[0]  # two layer-1 points
                above = list(trunc.above)
                above[i] &= ~(1 << j)
                return dataclasses.replace(trunc, above=tuple(above))
            extra = BalmerPrime(1, 2, trunc.hmax + 1)  # layer 1, listed last
            return dataclasses.replace(
                trunc, points=(*trunc.points, extra), above=(*trunc.above, 0)
            )

        monkeypatch.setattr(balmer, "b_truncation", damaged)
        assert not pairwise_open_embedding(2, 3, (2, 3), 2, True)
        assert not open_embedding_check(2, 3, (2, 3), 2, True)


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

    def test_points_are_one_height_above_the_query(self):
        assert smith_points(4, 2, 4, 2, 3, 0) == (BalmerPrime(4, 2, 4), BalmerPrime(2, 0, 1))
        assert smith_points(4, 2, 4, 2, INF, 2) == (BalmerPrime(4, 2, INF), BalmerPrime(2, 2, 3))

    def test_holds_is_containment_of_the_points(self):
        for k, l in itertools.product(range(1, 5), repeat=2):
            for n, h in itertools.product((0, 1, 2, 3, INF), repeat=2):
                assert smith_holds(4, 3, k, l, n, h) == b_leq(*smith_points(4, 3, k, l, n, h))

    @pytest.mark.parametrize(
        "args", [(3, 4, 1, 1, 0, 0), (0, 2, 1, 1, 0, 0), (3, 2, 4, 1, 0, 0), (3, 2, 1, 1, -1, 0)]
    )
    def test_points_reject_bad_input(self, args):
        with pytest.raises(ValueError):
            smith_points(*args)
