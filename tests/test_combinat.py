import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excspec.combinat import (
    INF,
    BudgetError,
    Partition,
    binomial,
    check_window,
    delta_p,
    delta_p_brute,
    digit_sum,
    mu_brute,
    mu_incl_excl,
    mu_stirling,
    ppp_enumerate,
    ppp_exists,
    shortest_ppp_chain,
    stirling1,
    stirling2,
    surjections,
)

PRIMES = [2, 3, 5, 7, 11, 13]


class TestBasicCounts:
    def test_binomial_window(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        for n in range(8):
            assert binomial(n, 0) == 1

    def test_stirling2_edges(self):
        for n in range(9):
            assert stirling2(n, n) == 1
        assert stirling2(3, 5) == 0
        assert stirling2(4, 2) == 7

    def test_stirling1_signed(self):
        # row n = 4: x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
        assert [stirling1(4, k) for k in range(5)] == [0, -6, 11, -6, 1]

    def test_surjections_examples(self):
        assert surjections(3, 2) == 6
        assert surjections(2, 3) == 0
        for i in range(1, 11):
            assert surjections(i, i) == math.factorial(i)

    def test_surjections_against_stirling(self):
        for i in range(1, 11):
            for j in range(1, 11):
                assert surjections(i, j) == math.factorial(j) * stirling2(i, j)

    def test_surjections_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            surjections(0, 3)


    def test_stirling_rows_match_recurrence(self):
        for n in range(1, 12):
            for k in range(1, n + 1):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
                assert stirling1(n, k) == stirling1(n - 1, k - 1) - (n - 1) * stirling1(n - 1, k)

    def test_check_window(self):
        assert check_window(3, [5, 2, 5, 3]) == (2, 3, 5)
        for d, primes in ((0, [2]), (-1, [2]), (2, []), (2, [2, 4]), (2, [1])):
            with pytest.raises(ValueError):
                check_window(d, primes)


class TestMu:
    def test_brute_examples(self):
        assert mu_brute(2, 2, 2) == 2
        assert mu_brute(2, 2, 3) == 4
        assert mu_brute(1, 1, 1) == 1

    def test_incl_excl_examples(self):
        assert mu_incl_excl(2, 2, 4) == 1
        assert mu_incl_excl(2, 3, 3) == surjections(3, 2) == 6
        assert mu_incl_excl(3, 2, 1) == 0

    def test_stirling_examples(self):
        assert mu_stirling(2, 2, 2) == 2
        assert mu_stirling(4, 4, 16) == 1
        for k in range(3, 10):
            assert mu_stirling(3, 3, k) == mu_brute(3, 3, k)

    def test_three_methods_agree_small(self):
        for i in range(1, 5):
            for j in range(1, 4):
                for k in range(1, i * j + 2):
                    b = mu_brute(i, j, k)
                    assert mu_incl_excl(i, j, k) == b
                    assert mu_stirling(i, j, k) == b

    def test_brute_budget(self):
        with pytest.raises(BudgetError):
            mu_brute(5, 5, 7)

    def test_formulas_agree_beyond_brute_budget(self):
        # the two summation formulas are independent of each other; they
        # must keep agreeing where exhaustive enumeration can't reach
        for i, j in [(5, 6), (6, 6), (4, 9)]:
            for k in range(max(i, j), i * j + 1):
                assert mu_incl_excl(i, j, k) == mu_stirling(i, j, k), (i, j, k)

    def test_top_cardinality_is_one(self):
        for i in range(1, 5):
            for j in range(1, 5):
                assert mu_incl_excl(i, j, i * j) == 1

    @given(
        i=st.integers(min_value=1, max_value=7),
        j=st.integers(min_value=1, max_value=7),
        k=st.integers(min_value=1, max_value=52),
    )
    @settings(max_examples=200, deadline=None)
    def test_support_window(self, i, j, k):
        value = mu_incl_excl(i, j, k)
        assert value >= 0
        inside = max(i, j) <= k <= i * j
        assert (value > 0) == inside

    @given(
        i=st.integers(min_value=1, max_value=6),
        j=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=38),
    )
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, i, j, k):
        assert mu_incl_excl(i, j, k) == mu_incl_excl(j, i, k)


class TestPartitions:
    def test_partition_normalizes(self):
        part = Partition((1, 4, 2))
        assert part.parts == (4, 2, 1)
        assert part.total == 7
        assert part.length == 3

    def test_partition_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_digit_sum(self):
        assert digit_sum(4, 2) == 1
        assert digit_sum(3, 2) == 2
        assert digit_sum(19, 3) == 3

    def test_digit_sum_rejects_composite_base(self):
        with pytest.raises(ValueError):
            digit_sum(10, 4)

    def test_enumerate_examples(self):
        assert ppp_enumerate(2, 4, 2) == [Partition((2, 2))]
        assert ppp_enumerate(2, 4, 3) == [Partition((2, 1, 1))]
        assert ppp_enumerate(2, 5, 1) == []

    def test_exists_examples(self):
        assert ppp_exists(2, 4, 2)
        assert not ppp_exists(2, 3, 1)
        assert ppp_exists(3, 4, 2)

    def test_exists_matches_enumeration(self):
        for p in PRIMES:
            for k in range(1, 33):
                for l in range(1, k + 1):
                    assert ppp_exists(p, k, l) == bool(ppp_enumerate(p, k, l))

    def test_enumerated_partitions_are_p_powers(self):
        for part in ppp_enumerate(3, 13, 5):
            assert part.total == 13
            assert part.length == 5
            for x in part.parts:
                while x % 3 == 0:
                    x //= 3
                assert x == 1

    def test_enumerate_budget(self):
        with pytest.raises(BudgetError):
            ppp_enumerate(2, 65, 2)

    @given(
        p=st.sampled_from(PRIMES),
        k=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_digit_sum_is_minimal_length(self, p, k):
        s = digit_sum(k, p)
        assert ppp_exists(p, k, s)
        assert (k - s) % (p - 1) == 0


class TestDelta:
    def test_examples(self):
        assert delta_p(2, 4, 2) == 1
        assert delta_p(2, 3, 1) == 2
        assert delta_p(5, 7, 3) == 1
        assert delta_p(5, 7, 4) is INF

    def test_brute_examples(self):
        for p in PRIMES:
            for l in (1, 3, 7):
                assert delta_p_brute(p, l, l) == 0
        assert delta_p_brute(2, 5, 2) == 1

    def test_rejects_k_below_l(self):
        with pytest.raises(ValueError):
            delta_p(2, 2, 5)
        with pytest.raises(ValueError):
            delta_p_brute(2, 2, 5)

    def test_brute_budget(self):
        with pytest.raises(BudgetError):
            delta_p_brute(2, 70, 1)

    def test_agreement_small(self):
        for p in (2, 3):
            for k in range(1, 17):
                for l in range(1, k + 1):
                    assert delta_p(p, k, l) == delta_p_brute(p, k, l)

    def test_values_bounded_by_two(self):
        for p in PRIMES:
            for k in range(1, 33):
                for l in range(1, k + 1):
                    assert delta_p(p, k, l) in (0, 1, 2, INF)

    def test_triangle_inequality(self):
        for p in PRIMES:
            for k in range(1, 25):
                for m in range(1, k + 1):
                    for l in range(1, m + 1):
                        assert delta_p(p, k, l) <= delta_p(p, k, m) + delta_p(p, m, l)

    def test_shortest_chain_witnesses_brute(self):
        for p in (2, 3, 5):
            for k in range(1, 21):
                for l in range(1, k + 1):
                    dist = delta_p_brute(p, k, l)
                    chain = shortest_ppp_chain(p, k, l)
                    if dist is INF:
                        assert chain is None
                    else:
                        assert chain is not None
                        assert len(chain) - 1 == dist
                        assert chain[0] == k and chain[-1] == l
                        for a, b in zip(chain, chain[1:]):
                            assert ppp_exists(p, a, b)


class TestConcurrentCaches:
    def test_memoized_counts_safe_under_parallel_reads(self):
        from concurrent.futures import ThreadPoolExecutor

        tasks = [
            (p, k, l)
            for p in (2, 3, 5)
            for k in range(1, 21)
            for l in range(1, k + 1)
        ]

        def work(args):
            p, k, l = args
            return (surjections(k, l), delta_p_brute(p, k, l))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, tasks))
        for (p, k, l), (surj, dist) in zip(tasks, results):
            assert surj == surjections(k, l)
            assert dist == delta_p(p, k, l)


class TestInfinity:
    def test_total_order_against_ints(self):
        assert 5 < INF
        assert not INF < 5
        assert not INF < INF
        assert INF <= INF
        assert INF > 10**30
        assert INF >= INF

    def test_absorbing_addition(self):
        assert INF + 7 is INF
        assert 7 + INF is INF
        assert INF + INF is INF

    def test_distinct_from_every_int(self):
        assert all(INF != n for n in range(-3, 100))
        assert INF == INF

    def test_hashable_singleton(self):
        assert len({INF, INF + 1, 4 + INF}) == 1
