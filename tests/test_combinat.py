import math
import operator
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excspec.balmer import (
    BalmerPrime,
    b_truncation,
    balmer_prime,
    generator_support,
    geometric_blueshift,
    open_embedding_check,
    smith_holds,
    smith_points,
    tate_blueshift,
)
from excspec.classify import (
    AdmissibleFunction, count_p_admissible, enumerate_p_admissible, is_p_admissible,
)
from excspec.combinat import (
    INF,
    MR_EXACT_BELOW,
    MU_BRUTE_CELL_BUDGET,
    MU_INCL_EXCL_CELL_BUDGET,
    MU_STIRLING_K_BUDGET,
    BudgetError,
    check_char,
    check_layer,
    check_prime,
    check_window,
    delta_p,
    delta_p_brute,
    digit_sum,
    layer_class,
    _mu_brute_table,
    is_prime,
    mu_brute,
    mu_incl_excl,
    mu_row,
    mu_stirling,
    ppp_enumerate,
    ppp_exists,
    shortest_ppp_chain,
    stirling1,
    stirling2,
    surjections,
)
from excspec import burnside, classify, combinat, poset
from excspec.burnside import (
    cokernel_invariants,
    ghost_is_hom_check,
    present,
    quotient_presentation_check,
    ring_check,
)
from excspec.hzspec import HZPrime, hz_admissible_subset, hz_leq, hz_poset, hz_prime
from excspec.poset import build_poset
from excspec.zariski import ZariskiPrime, z_poset, zariski_prime

PRIMES = [2, 3, 5, 7, 11, 13]


class TestBasicCounts:
    def test_stirling2_edges(self):
        for n in range(9):
            assert stirling2(n, n) == 1
        assert stirling2(3, 5) == 0
        assert stirling2(4, 2) == 7

    def test_stirling1_signed(self):
        # row n = 4: x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
        assert [stirling1(4, k) for k in range(5)] == [0, -6, 11, -6, 1]

    @pytest.mark.parametrize("stirling", [stirling1, stirling2])
    def test_stirling_rows_take_the_int_rule_and_a_budget(self, stirling, monkeypatch):
        assert stirling(0, 0) == 1 and stirling(2, 3) == 0
        for n, k, given in ((2.5, 1, "n .* got 2.5"), (True, 1, "n .* got True"),
                            (-1, 0, "n .* got -1"), (3, -1, "k .* got -1"), (3, 1.0, "k .* got 1.0")):
            with pytest.raises(ValueError, match=given):
                stirling(n, k)
        monkeypatch.setattr(combinat, "MU_STIRLING_K_BUDGET", 6)
        stirling(6, 7)
        with pytest.raises(BudgetError, match=f"^{stirling.__name__} budget exceeded: more than 6 rows$"):
            stirling(7, 8)

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


# Every public entry point that takes a window degree d, called with d
# alone varying.
DEGREE_ENTRY_POINTS = {
    "check_window": lambda d: check_window(d, [2]),
    "b_truncation": lambda d: b_truncation(d, [2], 2),
    "z_poset": lambda d: z_poset(d, [2]),
    "hz_poset": lambda d: hz_poset(d, [2]),
    "count_p_admissible": lambda d: count_p_admissible(d, 2, 1),
    "enumerate_p_admissible": lambda d: enumerate_p_admissible(d, 2, 1),
    "present": present,
    "cokernel_invariants": cokernel_invariants,
    "ghost_is_hom_check": lambda d: ghost_is_hom_check(d, 0),
    "ring_check": lambda d: ring_check(d, 0),
}


@pytest.mark.parametrize("d", [True, False, 2.0, 2.5, "2", 0, -1])
@pytest.mark.parametrize("entry", sorted(DEGREE_ENTRY_POINTS))
def test_one_degree_rule_at_every_entry_point(entry, d):
    # an int that is not a bool, at least 1; present(1) being cached
    # does not let present(True) through
    present(1)
    with pytest.raises(ValueError, match="^d must be an int >= 1"):
        DEGREE_ENTRY_POINTS[entry](d)
    DEGREE_ENTRY_POINTS[entry](2)


@pytest.mark.parametrize("trials", [True, 2.0, -1, "3"])
def test_trials_rule(trials):
    with pytest.raises(ValueError, match="^trials must be an int >= 0"):
        ghost_is_hom_check(3, trials)


def _swept_mu_table(i: int, j: int) -> tuple[int, ...]:
    """Tally by size of the subsets of the i x j grid that meet every row
    and every column, by visiting all 2**(i*j) bitmasks (cell (r, c) is
    bit r*j + c)."""
    rows = [sum(1 << (r * j + c) for c in range(j)) for r in range(i)]
    columns = [sum(1 << (r * j + c) for r in range(i)) for c in range(j)]
    tally = [0] * (i * j + 1)
    for cells in range(1 << (i * j)):
        if all(cells & m for m in rows) and all(cells & m for m in columns):
            tally[bin(cells).count("1")] += 1
    return tuple(tally)


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
        """Everywhere within the brute-force budget, at every k."""
        for i in range(1, MU_BRUTE_CELL_BUDGET + 1):
            for j in range(1, MU_BRUTE_CELL_BUDGET // i + 1):
                for k in range(1, i * j + 2):
                    b = mu_brute(i, j, k)
                    assert mu_incl_excl(i, j, k) == b, (i, j, k)
                    assert mu_stirling(i, j, k) == b, (i, j, k)

    def test_brute_budget(self):
        with pytest.raises(BudgetError):
            mu_brute(5, 5, 7)

    def test_row_count_equals_bitmask_sweep(self):
        """The row-by-row count equals a sweep of every subset bitmask of
        the grid, in both orientations."""
        grids = [(i, j) for i in range(1, 15) for j in range(1, 14 // i + 1)]
        for i, j in grids:
            assert _mu_brute_table(i, j) == _swept_mu_table(i, j), (i, j)

    def test_all_still_skips_brute_past_budget(self, run_cli):
        code, out, _ = run_cli(["mu", "5", "5", "7", "--all"])
        assert code == 0
        assert out.splitlines()[0] == "brute: skipped (budget)"

    def test_formulas_agree_beyond_brute_budget(self):
        # the two summation formulas are independent of each other; they
        # must keep agreeing where exhaustive enumeration can't reach
        for i, j in [(5, 6), (6, 6), (4, 9)]:
            for k in range(max(i, j), i * j + 1):
                assert mu_incl_excl(i, j, k) == mu_stirling(i, j, k), (i, j, k)

    def test_row_is_the_stirling_closed_form(self):
        # one pass of the alternating sum gives each l of the window,
        # zero below max(i, j) and above i*j
        for i in range(1, 13):
            for j in range(1, 13):
                for lo in (1, max(i, j), i * j):
                    want = [mu_stirling(i, j, l) for l in range(lo, i * j + 2)]
                    assert mu_row(i, j, lo, i * j + 1) == want, (i, j, lo)

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

    def test_incl_excl_is_zero_at_once_outside_the_support(self):
        # no size-k subset projects onto both factors when k < max(i, j)
        # or k > i*j; far past the cell budget these return without a sum
        for i, j, k in [(600, 600, 5), (1000, 10, 999), (2, 3000, 2999), (40, 50, 2001)]:
            assert mu_incl_excl(i, j, k) == 0

    def test_incl_excl_cell_budget(self):
        b = MU_INCL_EXCL_CELL_BUDGET
        assert mu_incl_excl(1, b, b) == 1
        for i, j, k in [(1, b + 1, b + 1), (1000, 1000, 1000), (2, b, b)]:
            with pytest.raises(BudgetError, match="mu_incl_excl budget"):
                mu_incl_excl(i, j, k)

    def test_stirling_k_budget(self):
        b = MU_STIRLING_K_BUDGET
        assert mu_stirling(b + 1, 2, b) == 0  # k < max(i, j): no sum at all
        for i, j, k in [(2, 2, b + 1), (2, 2, 20000), (30, 30, b + 1)]:
            with pytest.raises(BudgetError, match="mu_stirling budget"):
                mu_stirling(i, j, k)


class TestPartitions:
    def test_digit_sum(self):
        assert digit_sum(4, 2) == 1
        assert digit_sum(3, 2) == 2
        assert digit_sum(19, 3) == 3

    def test_digit_sum_rejects_composite_base(self):
        with pytest.raises(ValueError):
            digit_sum(10, 4)

    def test_enumerate_examples(self):
        assert ppp_enumerate(2, 4, 2) == [(2, 2)]
        assert ppp_enumerate(2, 4, 3) == [(2, 1, 1)]
        assert ppp_enumerate(2, 5, 1) == []
        assert ppp_enumerate(3, 7, 3) == [(3, 3, 1)]

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
        parts = ppp_enumerate(3, 13, 5)
        assert parts and len(set(parts)) == len(parts)
        for part in parts:
            assert sum(part) == 13
            assert len(part) == 5
            assert list(part) == sorted(part, reverse=True)
            for x in part:
                assert x >= 1
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
        assert delta_p(5, 7, 4) == INF

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
                    if dist == INF:
                        assert chain is None
                    else:
                        assert chain is not None
                        assert len(chain) - 1 == dist
                        assert chain[0] == k and chain[-1] == l
                        for a, b in zip(chain, chain[1:]):
                            assert ppp_exists(p, a, b)

    def test_layer_class_is_the_finite_distances(self):
        for p in PRIMES:
            for k in range(1, 61):
                finite = [l for l in range(1, k + 1) if delta_p(p, k, l) != INF]
                assert list(layer_class(p, k)) == finite, (p, k)


# Each constructor that takes a layer of the degree-d window, as a
# function of (d, layer) with its other arguments valid.
LAYER_TAKERS = {
    "balmer_prime": lambda d, layer: balmer_prime(d, layer, 2, 2),
    "zariski_prime": lambda d, layer: zariski_prime(d, layer, 0),
    "hz_prime": lambda d, layer: hz_prime(d, layer, 2),
    "generator_support": lambda d, layer: generator_support(b_truncation(d, [2], 2), layer),
}


# Each point type built raw, with no window, as a function of its layer.
RAW_POINTS = {
    "BalmerPrime": lambda layer: BalmerPrime(layer, 2, 2),
    "BalmerPrime_rational": lambda layer: BalmerPrime(layer, 0, 1),
    "ZariskiPrime": lambda layer: ZariskiPrime(layer, 2),
    "ZariskiPrime_char0": lambda layer: ZariskiPrime(layer, 0),
    "HZPrime": lambda layer: HZPrime(layer, 2),
}


class TestLayerRule:
    @pytest.mark.parametrize("take", LAYER_TAKERS.values(), ids=LAYER_TAKERS.keys())
    @pytest.mark.parametrize(
        "d, layer",
        [(3, 1.5), (3, True), (3, 0), (3, 4), (True, 1)],
        ids=["fractional", "bool-layer", "zero", "past-d", "bool-d"],
    )
    def test_refuses_a_layer_outside_the_window(self, take, d, layer):
        with pytest.raises(ValueError):
            take(d, layer)

    @pytest.mark.parametrize("make", RAW_POINTS.values(), ids=RAW_POINTS.keys())
    @pytest.mark.parametrize(
        "layer", [1.5, True, 0, -1], ids=["fractional", "bool", "zero", "negative"]
    )
    def test_raw_point_refuses_a_layer_that_is_not_an_int_from_one(self, make, layer):
        # the part of the rule that needs no window
        with pytest.raises(ValueError):
            make(layer)


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
        assert INF + 7 == INF
        assert 7 + INF == INF
        assert INF + INF == INF

    def test_distinct_from_every_int(self):
        assert all(INF != n for n in range(-3, 100))
        assert INF == INF

    def test_hashable_singleton(self):
        assert len({INF, INF + 1, 4 + INF}) == 1

    def test_huge_ints_next_to_infinity(self):
        # ints past the float range still compare exactly with INF
        assert not is_p_admissible((10**400, INF, 10**400 + 1), 2, 3)
        assert smith_holds(6, 2, 4, 2, INF, 10**400)

    def test_no_identity_test_on_inf_in_the_program(self):
        """A computed infinity (1 + INF, say) is a new float object, so an
        identity test would miss it; the program compares with ==."""
        root = Path(__file__).resolve().parents[1]
        pattern = re.compile(r"\bis\s+(not\s+)?INF\b")
        offenders = [
            f"{path.relative_to(root)}:{n}"
            for folder in ("src", "scripts")
            for path in sorted((root / folder).rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)
        ]
        assert offenders == []


# A014233 up to its 12th entry: the smallest strong pseudoprime to the
# first n prime bases, n = 1..12, repeats dropped.  is_prime uses 13 bases
# and stops at the 13th entry, MR_EXACT_BELOW.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)


class TestIsPrime:
    def test_matches_sympy_below_ten_thousand(self):
        from sympy import isprime

        assert all(is_prime(n) == isprime(n) for n in range(10**4))

    def test_carmichael_numbers_are_composite(self):
        from sympy import isprime

        # Chernick: (6k+1)(12k+1)(18k+1) is a Carmichael number when all
        # three factors are prime
        chernick = [
            (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
            for k in range(1, 400)
            if all(isprime(m * k + 1) for m in (6, 12, 18))
        ]
        small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
        assert len(chernick) > 10
        for n in small + chernick:
            assert not is_prime(n)

    def test_strong_pseudoprimes_are_composite(self):
        from sympy import isprime

        for n in STRONG_PSEUDOPRIMES:
            assert not isprime(n)
            assert not is_prime(n)

    @pytest.mark.parametrize("digits", range(13, 20))
    def test_large_primes_and_neighbours(self, digits):
        from sympy import isprime, nextprime

        p = nextprime(10 ** (digits - 1))
        assert is_prime(p)
        for n in range(p - 40, p + 40):
            assert is_prime(n) == isprime(n)

    def test_refuses_past_the_exact_range(self):
        assert not is_prime(MR_EXACT_BELOW - 1)  # even
        for n in (MR_EXACT_BELOW, 2**89 - 1):
            with pytest.raises(BudgetError, match="^is_prime budget exceeded: more than "):
                is_prime(n)


# One height rule at every entry point: an int that is not a bool, at
# least the floor, or INF where the height may be infinite; the message
# names the value given.
BAD_HEIGHTS = {
    "smith_points_bool_n": (lambda: smith_points(4, 2, 4, 2, True, 0), "got True"),
    "smith_holds_bool_h": (lambda: smith_holds(4, 2, 4, 2, 2, False), "got False"),
    "smith_points_fractional_n": (lambda: smith_points(4, 2, 4, 2, 2.5, 0), "got 2.5"),
    "smith_points_negative_n": (lambda: smith_points(4, 2, 4, 2, -1, 0), "got -1"),
    "tate_blueshift_bool_h": (lambda: tate_blueshift(2, 3, 1, True), "got True"),
    "b_truncation_bool_hmax": (lambda: b_truncation(3, [2], True), "got True"),
    "b_truncation_fractional_hmax": (lambda: b_truncation(3, [2], 2.5), "got 2.5"),
    "count_p_admissible_bool_hmax": (lambda: count_p_admissible(3, 2, True), "got True"),
    "enumerate_p_admissible_bool_hmax": (
        lambda: enumerate_p_admissible(3, 2, True), "got True"
    ),
}


@pytest.mark.parametrize("name", BAD_HEIGHTS)
def test_one_height_rule_at_every_entry_point(name):
    call, given = BAD_HEIGHTS[name]
    with pytest.raises(ValueError, match=re.escape(given)):
        call()


NOT_PRIMES = (-1, 0, 1, 4)
PRIME_TAKERS = {
    "delta_p": lambda p: delta_p(p, 3, 1),
    "ppp_exists": lambda p: ppp_exists(p, 3, 1),
    "geometric_blueshift": lambda p: geometric_blueshift(p, 3, 1),
    "tate_blueshift": lambda p: tate_blueshift(p, 3, 1, 2),
    "tate_blueshift_k_eq_l": lambda p: tate_blueshift(p, 2, 2, 3),
    "is_p_admissible_d1": lambda p: is_p_admissible((0,), p, 1),
    "is_p_admissible_d2": lambda p: is_p_admissible((0, 1), p, 2),
    "hz_leq": lambda p: hz_leq(HZPrime(3, p), HZPrime(1, 0)),
    "smith_holds": lambda p: smith_holds(3, p, 2, 1, 0, 0),
    "hz_admissible_subset": lambda p: hz_admissible_subset([], 3, [p]),
}


@pytest.mark.parametrize(
    "name, p",
    [
        (name, p)
        for name in PRIME_TAKERS
        for p in NOT_PRIMES
        if not (name == "hz_leq" and p == 0)  # residue 0 is the generic fibre
    ],
)
def test_non_prime_p_is_rejected(name, p):
    """Every entry point taking a prime checks it as delta_p does, before
    any layer arithmetic mod p-1 (which divides by zero at p = 1)."""
    with pytest.raises(ValueError):
        PRIME_TAKERS[name](p)


# One int rule for every int argument: each entry point as a function of
# (name of the argument, value), the other arguments valid.
def _with(call, names, valid):
    return lambda name, value: call(*(value if n == name else v for n, v in zip(names, valid)))


INT_TAKERS = {
    "surjections": (_with(surjections, "ij", (3, 2)), "ij"),
    "mu_brute": (_with(mu_brute, "ijk", (2, 2, 3)), "ijk"),
    "mu_incl_excl": (_with(mu_incl_excl, "ijk", (2, 2, 3)), "ijk"),
    "mu_stirling": (_with(mu_stirling, "ijk", (2, 2, 3)), "ijk"),
    "digit_sum": (_with(digit_sum, "kp", (5, 2)), "k"),
    "ppp_exists": (_with(ppp_exists, "pkl", (2, 3, 2)), "kl"),
    "ppp_enumerate": (_with(ppp_enumerate, "pkl", (2, 3, 2)), "kl"),
    "delta_p": (_with(delta_p, "pkl", (2, 3, 1)), "kl"),
    "shortest_ppp_chain": (_with(shortest_ppp_chain, "pkl", (2, 3, 1)), "kl"),
    "tate_blueshift": (_with(tate_blueshift, "pklh", (2, 3, 1, 2)), "klh"),
    "geometric_blueshift": (_with(geometric_blueshift, "pkl", (2, 3, 1)), "kl"),
    "open_embedding_check": (
        _with(open_embedding_check, ("m", "d", "primes", "hmax"), (1, 2, [2], 2)),
        ("m", "d", "hmax"),
    ),
    "basis": (_with(lambda i: present(3).basis(i), "i", (2,)), "i"),
    "full_product": (_with(lambda i, j: present(3).full_product(i, j), "ij", (2, 3)), "ij"),
    "structure_constant": (
        _with(lambda i, j, l: present(3).structure_constant(i, j, l), "ijl", (2, 3, 3)),
        "ijl",
    ),
    "check_layer": (_with(check_layer, ("d", "layer"), (3, 2)), ("d", "layer")),
    "balmer_prime": (
        _with(balmer_prime, ("d", "layer", "char", "height"), (3, 2, 2, 2)),
        ("d", "layer", "height"),
    ),
    "zariski_prime": (_with(zariski_prime, ("d", "layer", "char"), (3, 2, 2)), ("d", "layer")),
    "hz_prime": (_with(hz_prime, ("d", "layer", "residue"), (3, 2, 2)), ("d", "layer")),
    "BalmerPrime": (_with(BalmerPrime, ("layer", "char", "height"), (2, 2, 2)), ("layer",)),
    "ZariskiPrime": (_with(ZariskiPrime, ("layer", "char"), (2, 2)), ("layer",)),
    "HZPrime": (_with(HZPrime, ("layer", "residue"), (2, 2)), ("layer",)),
}


@pytest.mark.parametrize("value", [True, 2.0, 2.5, "2", 0, -1])
@pytest.mark.parametrize(
    "entry, name",
    [(entry, name) for entry, (_, names) in INT_TAKERS.items() for name in names],
)
def test_one_int_rule_at_every_entry_point(entry, name, value):
    """An int that is not a bool, at least 1 (at least l for a k paired
    with l); the message starts with the argument's name.  The valid
    call runs first, so a cache keyed by value (2.0 == 2) cannot let the
    invalid one through."""
    call, _ = INT_TAKERS[entry]
    call(None, None)
    with pytest.raises(ValueError, match=f"^{name} must be an int >= "):
        call(name, value)


def test_k_below_l_names_the_bound():
    for call in (delta_p, shortest_ppp_chain, geometric_blueshift):
        with pytest.raises(ValueError, match=r"^k must be an int >= 5, got 3$"):
            call(2, 3, 5)


def test_mu_brute_refuses_a_float_after_its_int_filled_the_cache():
    assert mu_brute(2, 2, 3) == 4
    with pytest.raises(ValueError, match="^i must be an int >= 1, got 2.0$"):
        mu_brute(2.0, 2, 3)


# Each entry point taking a prime, as a function of that prime.
STRICT_PRIME_TAKERS = {
    "check_prime": lambda p: check_prime("p", p),
    "check_window": lambda p: check_window(3, [p]),
    "check_window_with_a_prime": lambda p: check_window(3, [3, p]),
    "delta_p": lambda p: delta_p(p, 3, 1),
    "digit_sum": lambda p: digit_sum(5, p),
    "b_truncation": lambda p: b_truncation(2, [p], 2),
    "balmer_prime": lambda p: balmer_prime(3, 2, p, 2),
    "zariski_prime": lambda p: zariski_prime(3, 1, p),
    "hz_prime": lambda p: hz_prime(3, 1, p),
    "AdmissibleFunction.value": lambda p: AdmissibleFunction(3, (2, 3), ((0,) * 3,) * 2).value(1, p),
}


@pytest.mark.parametrize("p", [2.0, True, 4, 3.0])
@pytest.mark.parametrize("take", STRICT_PRIME_TAKERS.values(), ids=STRICT_PRIME_TAKERS.keys())
def test_a_prime_is_an_int(take, p):
    take(2)
    take(3)
    with pytest.raises(ValueError, match=rf"^(p|char|residue) must be prime, got {p!r}$"):
        take(p)


# Each entry point allowing the char or residue 0, as a function of it.
ZERO_CHAR_TAKERS = {
    "check_char": lambda c: check_char("char", c),
    "balmer_prime": lambda c: balmer_prime(3, 2, c, 1),
    "zariski_prime": lambda c: zariski_prime(3, 1, c),
    "hz_prime": lambda c: hz_prime(3, 1, c),
}


@pytest.mark.parametrize("zero", [0.0, False])
@pytest.mark.parametrize("take", ZERO_CHAR_TAKERS.values(), ids=ZERO_CHAR_TAKERS.keys())
def test_the_zero_char_is_the_int_0(take, zero):
    take(0)
    take(2)
    with pytest.raises(ValueError, match=rf"^(char|residue) must be prime, got {re.escape(repr(zero))}$"):
        take(zero)


# Each budget at its boundary, by constant and the function it bounds: a
# call of one int n, the lowered limit where the real boundary is slow
# (None where it is not), and the largest n accepted under a limit.  A
# lowered limit also shows that the constant is read at call time.
BUDGET_BOUNDARIES = {
    "MR_EXACT_BELOW-is_prime": (
        combinat, "MR_EXACT_BELOW", None, is_prime, lambda limit: limit - 1,
    ),
    "MU_BRUTE_CELL_BUDGET-mu_brute": (
        combinat, "MU_BRUTE_CELL_BUDGET", None, lambda n: mu_brute(n, 1, 1), lambda limit: limit,
    ),
    "MU_INCL_EXCL_CELL_BUDGET-mu_incl_excl": (
        combinat, "MU_INCL_EXCL_CELL_BUDGET", None, lambda n: mu_incl_excl(n, 1, n),
        lambda limit: limit,
    ),
    "MU_STIRLING_K_BUDGET-mu_stirling": (
        combinat, "MU_STIRLING_K_BUDGET", 30, lambda n: mu_stirling(1, 1, n), lambda limit: limit,
    ),
    "PARTITION_BUDGET-ppp_enumerate": (
        combinat, "PARTITION_BUDGET", None, lambda n: ppp_enumerate(2, n, 1), lambda limit: limit,
    ),
    "PARTITION_BUDGET-shortest_ppp_chain": (
        combinat, "PARTITION_BUDGET", None, lambda n: shortest_ppp_chain(2, n, n - 1),
        lambda limit: limit,
    ),
    "PRESENT_MAX_D-present": (burnside, "PRESENT_MAX_D", None, present, lambda limit: limit),
    "ASSOCIATIVITY_MAX_D-quotient_presentation_check": (
        burnside, "ASSOCIATIVITY_MAX_D", None, quotient_presentation_check, lambda limit: limit,
    ),
    "GHOST_TRIALS_BUDGET-ghost_is_hom_check": (
        burnside, "GHOST_TRIALS_BUDGET", 40, lambda n: ghost_is_hom_check(2, n),
        lambda limit: limit,
    ),
    # (hmax + 2)**d candidate vectors, at d = 1
    "ENUM_BUDGET-enumerate_p_admissible": (
        classify, "ENUM_BUDGET", 100, lambda n: enumerate_p_admissible(1, 2, n),
        lambda limit: limit - 2,
    ),
    # at d = 1 the DP computes 2 * (hmax + 2) entries
    "DP_BUDGET-count_p_admissible": (
        classify, "DP_BUDGET", 100, lambda n: count_p_admissible(1, 2, n),
        lambda limit: limit // 2 - 2,
    ),
    "POINT_BUDGET-build_poset": (
        poset, "POINT_BUDGET", 10, lambda n: build_poset(range(n), operator.le),
        lambda limit: limit,
    ),
    # 1 + hmax points at d = 1 over one prime, with infinity
    "POINT_BUDGET-b_truncation": (
        poset, "POINT_BUDGET", 10, lambda n: b_truncation(1, [2], n), lambda limit: limit - 1,
    ),
}


@pytest.mark.parametrize("case", BUDGET_BOUNDARIES.values(), ids=BUDGET_BOUNDARIES.keys())
def test_every_budget_at_its_boundary(case, monkeypatch):
    """The largest input within each budget answers and the next one is
    refused with BudgetError."""
    module, constant, lowered, call, largest = case
    if lowered is not None:
        monkeypatch.setattr(module, constant, lowered)
    n = largest(getattr(module, constant))
    call(n)
    with pytest.raises(BudgetError, match="budget exceeded|exact only below"):
        call(n + 1)
