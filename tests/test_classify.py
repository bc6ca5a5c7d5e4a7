import ast
import hashlib
import itertools
import re
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import listed_vectors

from excspec import classify
from excspec.balmer import BalmerPrime, b_truncation, balmer_prime
from excspec.classify import (
    AdmissibleFunction,
    PAdmissibleFunction,
    TruncationError,
    count_p_admissible,
    enumerate_p_admissible,
    function_from_thomason,
    is_admissible,
    is_p_admissible,
    thomason_from_function,
    thomason_union_closure,
    threshold_values,
    validate_thomason,
)
from excspec.combinat import INF, BudgetError, delta_p, delta_p_brute


def p_function(d, p, values):
    return PAdmissibleFunction(d, p, tuple(values))


# Windows small enough for the brute filter: 15,153 vectors in all.
BRUTE_WINDOWS = [(4, 2, 3), (5, 2, 2), (7, 2, 1), (5, 3, 3), (6, 3, 2), (6, 5, 2)]

# (count, first 16 hex digits of the sha256 of repr(list)) that
# enumerate_p_admissible gave when it checked the inequality pair by pair
# for each candidate value, before the per-layer ceiling and before its
# list became lazy rows; the digest is over the flattened rows.
PINNED_ENUMERATIONS = {
    (8, 3, 4): (83485, "53c98662b917692a"),
    (8, 3, 3): (27378, "c4fe400fc80c0115"),
    (7, 3, 4): (25960, "741f428f41ce9969"),
    (6, 3, 6): (33300, "21360e6eae8ef3a0"),
    (10, 2, 3): (41160, "5f3dfcea5f190a4c"),
    (6, 5, 4): (22500, "7d986122a8ad52d5"),
    (5, 2, 3): (448, "66d8d261368401df"),
}


def naive_vectors(d, p, hmax):
    """The admissible vectors in ascending order, by a walk in which
    each node takes its layer's ceiling afresh from the whole prefix:
    the minimum over every earlier layer l of delta_p(k, l) + f(l), INF
    when none is finite."""
    domain = threshold_values(hmax)
    deltas = [[delta_p(p, k, l) for l in range(1, k)] for k in range(1, d + 1)]

    def admitted(prefix):
        sums = (delta + v for delta, v in zip(deltas[len(prefix)], prefix))
        ceiling = min(sums, default=INF)
        return domain if ceiling == INF else domain[: min(ceiling, hmax) + 1]

    def walk(prefix):
        if len(prefix) == d:
            yield prefix
        else:
            for v in admitted(prefix):
                yield from walk(prefix + (v,))

    return list(walk(()))


# Every window up to d = 9 with at most 3 * 10**4 candidate vectors,
# for the primes whose classes couple in it.
WALK_WINDOWS = [
    (d, p, h)
    for d in range(1, 10)
    for p in (2, 3, 5, 7)
    for h in range(0, 7)
    if (h + 2) ** d <= 3 * 10**4
]


def brute_enumerate(d, p, hmax):
    """Independent filter: enumerate every vector and check the
    inequality with the brute-force chain-search distance."""
    domain = tuple(range(hmax + 1)) + (INF,)
    out = []
    for values in itertools.product(domain, repeat=d):
        ok = True
        for k in range(2, d + 1):
            for l in range(1, k):
                if (k - l) % (p - 1) != 0:
                    continue
                if not values[k - 1] <= delta_p_brute(p, k, l) + values[l - 1]:
                    ok = False
        if ok:
            out.append(values)
    return out


class TestPAdmissible:
    def test_constants(self):
        assert is_p_admissible((INF,) * 4, 2, 4)
        assert is_p_admissible((0,) * 4, 2, 4)

    def test_blueshift_violation(self):
        assert not is_p_admissible((0, 2), 2, 2)
        assert is_p_admissible((0, 1), 2, 2)

    def test_rejects_bad_window(self):
        for values, p, d in [((5,), 4, 1), ((), 2, 0), ((0, 0), 1, 2), ((0,), 2, 2)]:
            with pytest.raises(ValueError):
                is_p_admissible(values, p, d)

    @pytest.mark.parametrize(
        "d, p, values",
        [
            (2, 4, (0, 0)),  # not a prime
            (0, 2, ()),  # d < 1
            (2, 2, (0,)),  # too short
        ],
    )
    def test_function_rejects_bad_window(self, d, p, values):
        with pytest.raises(ValueError):
            PAdmissibleFunction(d, p, values)

    @pytest.mark.parametrize("bad", [-1, 1.5, True], ids=repr)
    def test_rejects_non_threshold_values(self, bad):
        for values in [(bad, 0), (1, bad)]:
            with pytest.raises(ValueError, match="threshold"):
                is_p_admissible(values, 2, 2)

    @pytest.mark.parametrize("bad", [-1, 1.5, True], ids=repr)
    def test_function_rejects_non_threshold_values(self, bad):
        # (-1, 0) would otherwise round-trip to (1, 0)
        with pytest.raises(ValueError, match="threshold"):
            PAdmissibleFunction(2, 2, (bad, 0))
        with pytest.raises(ValueError, match="threshold"):
            AdmissibleFunction(2, (2, 3), ((0, 0), (1, bad)))

    @given(data=st.data(), d=st.integers(1, 40), p=st.sampled_from([2, 3, 5, 7, 11, 13]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_pairwise_inequality(self, data, d, p):
        # near-constant vectors under an INF prefix, so that both answers
        # come up at every d; the oracle checks each pair l < k with
        # finite distance
        cut = data.draw(st.integers(0, d), label="INF prefix")
        base = data.draw(st.integers(0, 3), label="base")
        tail = data.draw(st.lists(st.integers(0, 2), min_size=d - cut, max_size=d - cut))
        values = (INF,) * cut + tuple(base + e for e in tail)
        pairwise = all(
            values[k - 1] <= delta_p(p, k, l) + values[l - 1]
            for k in range(1, d + 1)
            for l in range(1, k)
            if delta_p(p, k, l) != INF
        )
        assert is_p_admissible(values, p, d) == pairwise

    def test_only_widths_and_the_check_read_delta_p(self):
        """The admissibility inequality is stated once in each of its two
        forms: capped at hmax in `_widths`, which the count DP and the
        listing walk read, and exact in `is_p_admissible`.  So no other
        function of classify calls delta_p."""
        tree = ast.parse(Path(classify.__file__).read_text())
        callers = {
            top.name
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "delta_p"
        }
        assert callers == {"_widths", "is_p_admissible"}

    @pytest.mark.parametrize("d, p, hmax", [(2, 2, 2), (3, 2, 1), (3, 3, 2)] + BRUTE_WINDOWS)
    def test_matches_brute_filter(self, d, p, hmax):
        brute = set(brute_enumerate(d, p, hmax))
        domain = tuple(range(hmax + 1)) + (INF,)
        mine = {
            v
            for v in itertools.product(domain, repeat=d)
            if is_p_admissible(v, p, d)
        }
        assert mine == brute


class TestAdmissible:
    def test_constant_infinity(self):
        f = AdmissibleFunction(2, (2, 3), ((INF, INF), (INF, INF)))
        assert is_admissible(f)

    def test_zero_coherence_across_primes(self):
        f = AdmissibleFunction(2, (2, 3), ((0, 0), (1, 1)))
        assert not is_admissible(f)
        g = AdmissibleFunction(2, (2, 3), ((0, 0), (0, 0)))
        assert is_admissible(g)

    def test_restriction_is_p_admissible(self):
        f = AdmissibleFunction(3, (2, 3), ((1, 2, 2), (1, INF, 2)))
        if is_admissible(f):
            for p in f.primes:
                assert is_p_admissible(f.values[f.primes.index(p)], p, f.d)

    def test_per_prime_condition_shares_the_evaluator(self, monkeypatch):
        # the multi-prime check must route through the single-prime one
        from excspec import classify

        monkeypatch.setattr(classify, "is_p_admissible", lambda *a: False)
        f = AdmissibleFunction(2, (2,), ((INF, INF),))
        assert not classify.is_admissible(f)

    @pytest.mark.parametrize(
        "d, primes, values",
        [
            (2, (2, 3), ((0, 0),)),  # a row short: IndexError in is_admissible before
            (2, (2,), ((0, 0), (0, 0))),  # a row too many
            (2, (2, 3), ((0,), (0, 0))),  # a row of the wrong length
            (2, (2, 2), ((0, 0), (0, 0))),  # a repeated prime
            (2, (4,), ((0, 0),)),  # not a prime
            (0, (2,), ((),)),  # d < 1
        ],
    )
    def test_rejects_bad_shape(self, d, primes, values):
        with pytest.raises(ValueError):
            AdmissibleFunction(d, primes, values)

    @pytest.mark.parametrize("k", [0, 3, -1, 1.5, True], ids=repr)
    def test_value_refuses_a_layer_outside_the_window(self, k):
        # an unchecked k = 0 would read the last layer's value
        f = PAdmissibleFunction(2, 2, (0, 1))
        with pytest.raises(ValueError, match="layer"):
            f.value(k, 2)

    def test_lookup_by_prime_survives_the_sorting(self):
        f = AdmissibleFunction(2, (3, 2), ((1, 1), (2, 2)))
        assert f.value(1, 3) == 1 and f.value(1, 2) == 2
        assert f.primes == (2, 3) and f.values == ((2, 2), (1, 1))

    def test_spellings_in_any_prime_order_are_one_function(self):
        f = AdmissibleFunction(2, (3, 2), ((1, 1), (1, 2)))
        g = AdmissibleFunction(2, (2, 3), ((1, 2), (1, 1)))
        assert f == g and hash(f) == hash(g)

    def test_list_rows_are_stored_as_tuples(self):
        f = AdmissibleFunction(2, [3, 2], [[1, 1], [1, 2]])
        assert f.primes == (2, 3) and f.values == ((1, 2), (1, 1))
        assert hash(f) == hash(AdmissibleFunction(2, (2, 3), ((1, 2), (1, 1))))
        assert PAdmissibleFunction(2, 2, [1, 2]).values == ((1, 2),)

    def test_round_trip_returns_the_function_given_in_any_prime_order(self):
        trunc = b_truncation(2, [2, 3], 3)
        f = AdmissibleFunction(2, (3, 2), ((1, 1), (1, 2)))
        assert function_from_thomason(thomason_from_function(f, trunc), trunc) == f


class TestThomasonFromFunction:
    def test_constant_infinity_gives_empty(self):
        trunc = b_truncation(2, [2], 3, True)
        Y = thomason_from_function(p_function(2, 2, (INF, INF)), trunc)
        assert len(Y) == 0

    def test_constant_zero_gives_everything(self):
        trunc = b_truncation(2, [2], 3, True)
        Y = thomason_from_function(p_function(2, 2, (0, 0)), trunc)
        assert Y == frozenset(trunc.points)

    def test_mixed_thresholds(self):
        trunc = b_truncation(2, [2], 3, True)
        Y = thomason_from_function(p_function(2, 2, (1, 0)), trunc)
        layer2 = {q for q in trunc.points if q.layer == 2}
        assert layer2 <= Y
        assert balmer_prime(2, 1, 2, 2) in Y
        assert balmer_prime(2, 1, 2, 1) not in Y

    def test_rejects_non_admissible(self):
        trunc = b_truncation(2, [2], 3, True)
        with pytest.raises(ValueError):
            thomason_from_function(p_function(2, 2, (0, 2)), trunc)

    def test_window_too_small(self):
        trunc = b_truncation(1, [2], 2, True)
        with pytest.raises(TruncationError):
            thomason_from_function(p_function(1, 2, (2,)), trunc)


class TestFunctionFromThomason:
    def test_empty_gives_constant_infinity(self):
        trunc = b_truncation(2, [2], 3, True)
        f = function_from_thomason(frozenset(), trunc)
        assert f.values == ((INF, INF),)

    def test_closure_of_interior_point(self):
        # the closure of the layer-2 height-2 point stays inside layer 2
        trunc = b_truncation(2, [2], 3, True)
        Y = thomason_union_closure([balmer_prime(2, 2, 2, 2)], trunc)
        assert Y == frozenset(
            {
                balmer_prime(2, 2, 2, 2),
                balmer_prime(2, 2, 2, 3),
                balmer_prime(2, 2, 2, INF),
            }
        )
        f = function_from_thomason(Y, trunc)
        assert f.values == ((INF, 1),)

    def test_rejects_non_closed_with_witness(self):
        trunc = b_truncation(2, [2], 3, True)
        bad = frozenset({balmer_prime(2, 1, 2, 2)})  # misses its own closure
        with pytest.raises(ValueError, match="specialization"):
            function_from_thomason(bad, trunc)

    def test_witness_is_the_first_member_in_point_order(self):
        trunc = b_truncation(3, [2], 3)
        bad = frozenset(
            {balmer_prime(3, 2, 2, INF), balmer_prime(3, 1, 2, INF), balmer_prime(3, 1, 2, 3)}
        )
        with pytest.raises(ValueError) as excinfo:
            validate_thomason(bad, trunc)
        assert str(excinfo.value) == (
            "not specialization-closed: BalmerPrime(layer=3, char=2, height=inf) "
            "lies under member BalmerPrime(layer=1, char=2, height=3)"
        )

    def test_rejects_point_outside_the_truncation(self):
        trunc = b_truncation(2, [2], 2, True)
        outside = balmer_prime(2, 1, 2, 3)  # above hmax
        with pytest.raises(ValueError, match=re.escape(str(outside))):
            function_from_thomason(frozenset({outside}), trunc)

    def test_rejects_floating_infinity_point(self):
        trunc = b_truncation(1, [2], 2, True)
        bad = frozenset({balmer_prime(1, 1, 2, INF)})
        with pytest.raises(ValueError, match="finite-height"):
            function_from_thomason(bad, trunc)

    def test_boundary_column_reports_window_top(self):
        # valid set whose layer-2 column shows only the infinity point:
        # the witness height lives just above the window
        trunc = b_truncation(2, [2], 1, True)
        Y = thomason_union_closure([balmer_prime(2, 1, 2, 1)], trunc)
        assert balmer_prime(2, 2, 2, INF) in Y
        f = function_from_thomason(Y, trunc)
        assert f.values == ((0, 1),)
        back = thomason_from_function(f, trunc)
        assert back == Y


class TestRoundTrip:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("hmax", [1, 2, 3])
    def test_bijection_by_double_enumeration(self, d, hmax):
        p = 2
        trunc = b_truncation(d, [p], hmax, True)
        _, functions = listed_vectors(d, p, hmax)

        visible = {}
        for values in functions:
            try:
                Y = thomason_from_function(p_function(d, p, values), trunc)
            except TruncationError:
                continue
            assert Y not in visible.values()
            visible[values] = Y

        # every valid subset of the truncation arises exactly once
        pts = list(trunc.points)
        valid_subsets = set()
        for bits in range(1 << len(pts)):
            members = frozenset(pts[i] for i in range(len(pts)) if bits >> i & 1)
            try:
                validate_thomason(members, trunc)
            except ValueError:
                continue
            valid_subsets.add(members)
        assert set(visible.values()) == valid_subsets

        # and reconstruction inverts the construction on both sides
        for values, members in visible.items():
            f = function_from_thomason(members, trunc)
            assert f.values == (values,)
            assert thomason_from_function(f, trunc) == members

    def test_pointwise_order_reversal(self):
        d, p, hmax = 3, 2, 2
        trunc = b_truncation(d, [p], hmax, True)
        _, functions = listed_vectors(d, p, hmax)
        shadows = {}
        for values in functions:
            try:
                shadows[values] = thomason_from_function(
                    p_function(d, p, values), trunc
                )
            except TruncationError:
                pass
        for f, g in itertools.product(shadows, repeat=2):
            if all(a <= b for a, b in zip(f, g)):
                assert shadows[g] <= shadows[f]


class TestEnumeration:
    def test_rank_one_count(self):
        for p in (2, 5):
            for hmax in (0, 1, 3):
                count, _ = enumerate_p_admissible(1, p, hmax)
                assert count == hmax + 2

    def test_no_constraints_when_gap_not_divisible(self):
        for hmax in (1, 2):
            count, _ = enumerate_p_admissible(2, 3, hmax)
            assert count == (hmax + 2) ** 2

    def test_rank_two_char_two(self):
        count, _ = enumerate_p_admissible(2, 2, 1)
        assert count == len(brute_enumerate(2, 2, 1)) == 7

    def test_budget(self):
        with pytest.raises(BudgetError):
            enumerate_p_admissible(12, 2, 8)

    def test_list_matches_count(self):
        count, listed = listed_vectors(3, 2, 2)
        assert count == len(listed)
        assert len(set(listed)) == count

    def test_list_is_ascending_with_inf_last(self):
        for d, p, hmax in [(3, 2, 2), (4, 3, 1), (2, 5, 3)]:
            _, listed = listed_vectors(d, p, hmax)
            assert all(a < b for a, b in zip(listed, listed[1:]))
            assert listed[-1] == (INF,) * d

    @pytest.mark.parametrize("d, p, hmax", BRUTE_WINDOWS)
    def test_list_is_the_brute_filter(self, d, p, hmax):
        brute = brute_enumerate(d, p, hmax)
        assert listed_vectors(d, p, hmax) == (len(brute), brute)

    @pytest.mark.parametrize("window", sorted(PINNED_ENUMERATIONS))
    def test_pinned_windows(self, window):
        count, listed = listed_vectors(*window)
        digest = hashlib.sha256(repr(listed).encode()).hexdigest()[:16]
        assert (count, digest) == PINNED_ENUMERATIONS[window]
        assert enumerate_p_admissible(*window)[0] == count
        assert count_p_admissible(*window) == count

    def test_refusal_comes_before_any_row(self):
        # the checks are eager, so the CLI exits 2 before writing a byte
        with pytest.raises(BudgetError):
            enumerate_p_admissible(12, 2, 8)
        with pytest.raises(ValueError):
            enumerate_p_admissible(3, 2, -1)

    def test_threshold_values(self):
        assert threshold_values(0) == (0, INF)
        assert threshold_values(3) == (0, 1, 2, 3, INF)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_rows_are_the_naive_walk(self, p):
        for d, q, hmax in WALK_WINDOWS:
            if q == p:
                assert listed_vectors(d, p, hmax)[1] == naive_vectors(d, p, hmax), (d, p, hmax)

    def test_admitted_values_are_a_prefix_of_the_domain(self):
        # the values the last layer admits under each prefix of the others
        for d, p, hmax in [(1, 2, 3), (2, 2, 40), (6, 3, 3), (5, 2, 2)]:
            domain = threshold_values(hmax)
            admitted = defaultdict(list)
            for vector in listed_vectors(d, p, hmax)[1]:
                admitted[vector[:-1]].append(vector[-1])
            for values in admitted.values():
                assert tuple(values) == domain[: len(values)]

    @pytest.mark.parametrize(
        "window", [(1, 2, 3), (2, 2, 40), (2, 2, 300), (3, 2, 20), (6, 3, 3), (8, 3, 4), (9, 7, 3), (6, 3, 6)]
    )
    def test_tails_of_one_key_are_prefixes_of_one_tuple(self, window):
        # the --list writer makes the texts of a key's tails once and
        # slices them; each row's tails are what its stem admits
        d, p, hmax = window
        longest = {}
        stems = []
        for stem, key, tails in enumerate_p_admissible(d, p, hmax)[1]:
            stems.append(stem)
            if len(tails) > len(longest.get(key, ())):
                longest[key] = tails
        for stem, key, tails in enumerate_p_admissible(d, p, hmax)[1]:
            assert tails and tails == longest[key][: len(tails)]
            assert {len(stem + tail) for tail in tails} == {d}
        assert stems == sorted(set(stems)) and len({len(stem) for stem in stems}) == 1
        assert sum(map(len, longest.values())) <= classify.TAIL_SPAN**2

    def test_rows_are_a_lazy_walk(self):
        _, rows = enumerate_p_admissible(8, 3, 4)
        assert iter(rows) is rows
        stem, _, tails = next(rows)
        assert [stem + tail for tail in tails][:3] == [(0,) * 8, (0,) * 7 + (1,), (0,) * 6 + (1, 0)]


# Every window of the benchmark's ideals --count pool, plus (10, 2, 3).
COUNT_WINDOWS = [
    (d, p, h)
    for d in range(1, 13)
    for p in (2, 3, 5, 7)
    for h in range(0, 7)
    if (h + 2) ** d <= 3 * 10**5
] + [(10, 2, 3)]


class TestCount:
    """count_p_admissible, the per-class DP, against the walk that lists
    the vectors."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_equals_the_rows_walked(self, p):
        for d, q, hmax in COUNT_WINDOWS:
            if q == p:
                _, rows = enumerate_p_admissible(d, p, hmax)
                walked = sum(len(tails) for _, _, tails in rows)
                assert count_p_admissible(d, p, hmax) == walked, (d, p, hmax)

    @pytest.mark.parametrize(
        "d, p, hmax, count",
        [
            (12, 5, 3, 10_185_728),  # past the enumeration budget
            (8, 3, 6, 487_746),  # what enumeration gives on a 10**8 budget
            (40, 2, 10, 33_362_446_957_506_628_914),  # DP only
            (1415, 1409, 0, 2**1401 * 3**7),  # refused while a pair table was charged
        ],
    )
    def test_pinned_counts(self, d, p, hmax, count):
        assert count_p_admissible(d, p, hmax) == count

    def test_one_layer_per_class_is_unconstrained(self):
        # p - 1 >= d: no two layers share a class mod p-1
        assert count_p_admissible(4, 7, 3) == 5**4
        assert count_p_admissible(1400, 1409, 0) == 2**1400

    @pytest.mark.parametrize("d, p, hmax", [(10, 2, 3), (12, 5, 3), (1400, 1409, 0)])
    def test_reads_delta_once_per_class_pair(self, monkeypatch, d, p, hmax):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return delta_p(*args)

        monkeypatch.setattr(classify, "delta_p", counted)
        pairs = sum((m - k) % (p - 1) == 0 for m in range(1, d + 1) for k in range(1, m))
        count_p_admissible(d, p, hmax)
        assert calls == pairs

    @pytest.mark.parametrize("d, p, hmax", [(0, 2, 1), (3, 4, 1), (3, 2, -1)])
    def test_rejects_bad_window(self, d, p, hmax):
        with pytest.raises(ValueError):
            count_p_admissible(d, p, hmax)

    def test_budget(self, monkeypatch):
        # the bounds are charged before any work
        with pytest.raises(BudgetError):
            count_p_admissible(10**5, 2, 1)
        monkeypatch.setattr(classify, "DP_BUDGET", 1000)
        assert count_p_admissible(5, 2, 3) == 448
        with pytest.raises(BudgetError):
            count_p_admissible(10, 2, 3)  # 1284 entries


def visible(values, p, hmax):
    """Whether a threshold vector is visible at hmax: each layer cut at
    hmax has an earlier layer of its class mod p-1 cut below hmax."""
    return all(
        f != hmax or any(values[l - 1] < hmax for l in range(k - (p - 1), 0, -(p - 1)))
        for k, f in enumerate(values, 1)
    )


def count_valid_down_sets(trunc):
    """Count the valid Thomason subsets of a truncation from its up-set
    bitsets alone: each point in turn is either taken with its down-set
    or dropped with its up-set, and a down-set counts when every member
    lies under a finite-height member."""
    up = trunc.above
    down = [0] * len(up)
    for i, mask in enumerate(up):
        for j in range(mask.bit_length()):
            if mask >> j & 1:
                down[j] |= 1 << i
    finite = [pt.height != INF for pt in trunc.points]

    def count(undecided, inside, covered):
        if not undecided:
            return inside & ~covered == 0
        i = (undecided & -undecided).bit_length() - 1
        closed = down[i] | 1 << i
        taken = count(
            undecided & ~closed, inside | closed, covered | closed if finite[i] else covered
        )
        return taken + count(undecided & ~(up[i] | 1 << i), inside, covered)

    return count((1 << len(up)) - 1, 0, 0)


class TestVisibleCount:
    """The classification theorem past criterion 10's exhaustive d <= 3:
    visible threshold functions and valid Thomason subsets, counted on
    two independent routes."""

    @pytest.mark.parametrize("d, p, hmax", [(5, 2, 3), (4, 3, 2), (3, 2, 1), (6, 5, 2)])
    def test_visible_is_what_thomason_from_function_accepts(self, d, p, hmax):
        trunc = b_truncation(d, [p], hmax, True)
        for values in listed_vectors(d, p, hmax)[1]:
            try:
                thomason_from_function(p_function(d, p, values), trunc)
                accepted = True
            except TruncationError:
                accepted = False
            assert accepted == visible(values, p, hmax), values

    @pytest.mark.parametrize(
        "d, p, hmax, count",
        [(8, 3, 4, 40365), (10, 3, 3, 81438), (7, 5, 3, 8788), (6, 2, 2, 272), (5, 2, 3, 288)],
    )
    def test_visible_functions_count_the_valid_subsets(self, d, p, hmax, count):
        _, functions = listed_vectors(d, p, hmax)
        assert sum(visible(f, p, hmax) for f in functions) == count
        assert count_valid_down_sets(b_truncation(d, [p], hmax, True)) == count


class TestHopkinsSmith:
    """Degree 1: one threshold in {0..H, inf} per prime, coupled only by
    zero coherence, and the valid Thomason subsets are the whole window
    or one chromatic tail per prime."""

    @pytest.mark.parametrize("primes, hmax", [((2, 3), 3), ((2, 3, 5), 2), ((7,), 4)])
    def test_admissible_functions(self, primes, hmax):
        domain = tuple(range(hmax + 1)) + (INF,)
        for row in itertools.product(domain, repeat=len(primes)):
            f = AdmissibleFunction(1, primes, tuple((v,) for v in row))
            expected = all(v == 0 for v in row) or not any(v == 0 for v in row)
            assert is_admissible(f) == expected, row

    @pytest.mark.parametrize("primes, hmax", [((2, 3), 3), ((2, 3, 5), 2), ((2,), 5)])
    def test_valid_subsets_are_chromatic_tails(self, primes, hmax):
        trunc = b_truncation(1, list(primes), hmax, True)
        pts = list(trunc.points)
        valid = set()
        for bits in range(1 << len(pts)):
            members = frozenset(pts[i] for i in range(len(pts)) if bits >> i & 1)
            try:
                validate_thomason(members, trunc)
            except ValueError:
                continue
            valid.add(members)
        # a tail above a finite cut n < hmax, or nothing, per prime
        tails = [
            [frozenset(q for q in pts if q.char == p and q.height > n) for n in range(1, hmax)]
            + [frozenset()]
            for p in primes
        ]
        expected = {frozenset(pts)} | {frozenset().union(*c) for c in itertools.product(*tails)}
        assert valid == expected
        assert len(valid) == hmax ** len(primes) + 1


class TestUnionClosure:
    def test_empty(self):
        trunc = b_truncation(2, [2], 2, True)
        assert len(thomason_union_closure([], trunc)) == 0

    def test_raw_rational_seed(self):
        trunc = b_truncation(2, [2], 2, True)
        closure = thomason_union_closure([BalmerPrime(1, 2, 1)], trunc)
        assert closure == trunc.down_closure([BalmerPrime(1, 0, 1)])

    def test_rejects_infinite_seed(self):
        trunc = b_truncation(2, [2], 2, True)
        with pytest.raises(ValueError):
            thomason_union_closure([balmer_prime(2, 1, 2, INF)], trunc)

    def test_rejects_seed_outside_the_truncation(self):
        trunc = b_truncation(2, [2], 2, True)
        outside = balmer_prime(2, 1, 2, 3)  # above hmax
        with pytest.raises(ValueError, match=re.escape(str(outside))):
            thomason_union_closure([outside], trunc)

    def test_seeds_on_every_column_cover_finite_region(self):
        trunc = b_truncation(2, [2], 3, True)
        seeds = [
            balmer_prime(2, k, 2, trunc.hmax) for k in (1, 2)
        ]
        Y = thomason_union_closure(seeds, trunc)
        for k in (1, 2):
            assert balmer_prime(2, k, 2, 3) in Y
            assert balmer_prime(2, k, 2, INF) in Y

    def test_closure_of_generic_point_is_everything_below_it(self):
        trunc = b_truncation(2, [2], 2, True)
        seed = balmer_prime(2, 1, 2, 1)
        Y = thomason_union_closure([seed], trunc)
        expected = frozenset(
            q for q in trunc.points if trunc.leq(q, seed)
        )
        assert Y == expected
        # round-trips through the threshold function
        f = function_from_thomason(Y, trunc)
        assert thomason_from_function(f, trunc) == Y

    @given(bits=st.integers(min_value=0, max_value=(1 << 8) - 1))
    @settings(max_examples=80, deadline=None)
    def test_union_closures_always_validate(self, bits):
        trunc = b_truncation(2, [2], 2, True)
        finite = [q for q in trunc.points if q.height != INF]
        seeds = [finite[i] for i in range(len(finite)) if bits >> i & 1]
        Y = thomason_union_closure(seeds, trunc)
        validate_thomason(Y, trunc)
        f = function_from_thomason(Y, trunc)
        assert thomason_from_function(f, trunc) == Y
