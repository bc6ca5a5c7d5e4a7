import math
import random
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excspec import burnside
from excspec.burnside import (
    PRESENT_MAX_D,
    BurnsidePresentation,
    RingElement,
    cokernel_invariants,
    factorial_product_group_matches,
    ghost_is_hom_check,
    present,
    quotient_presentation_check,
    ring_check,
    smith_normal_form,
)
from excspec.combinat import BudgetError, mu_brute, mu_row, mu_stirling, surjections
from excspec.zariski import z_membership, zariski_prime


def coeff_vectors(d: int):
    return st.tuples(*([st.integers(min_value=-9, max_value=9)] * d)).map(RingElement)


def dense_elements(d: int, count: int, seed: int) -> list[RingElement]:
    # every coefficient nonzero, so that every basis pair contributes
    rng = random.Random(seed)
    return [
        RingElement(tuple(rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(d)))
        for _ in range(count)
    ]


def naive_multiply(pres, a, b) -> RingElement:
    # the bilinear sum over every ordered basis pair and every l
    d = pres.d
    return RingElement(tuple(
        sum(
            a.coeffs[i - 1] * b.coeffs[j - 1] * pres.structure_constant(i, j, l)
            for i in range(1, d + 1)
            for j in range(1, d + 1)
        )
        for l in range(1, d + 1)
    ))


def naive_ghost(a: RingElement) -> tuple[int, ...]:
    # component i is sum_j surj(i, j) a_j
    d = a.dim
    return tuple(
        sum(surjections(i, j) * a.coeffs[j - 1] for j in range(1, d + 1))
        for i in range(1, d + 1)
    )


class TestPresentation:
    def test_rank_three_matrix(self):
        assert present(3).M == ((1, 0, 0), (1, 2, 0), (1, 6, 6))

    def test_rank_one(self):
        pres = present(1)
        assert pres.structure_constant(1, 1, 1) == mu_stirling(1, 1, 1) == 1
        assert list(pres.table()) == [(1, 1, ((1, 1),))]
        assert pres.M == ((1,),)

    def test_matrix_lower_triangular_with_factorial_diagonal(self):
        pres = present(6)
        for i in range(6):
            assert pres.M[i][i] == math.factorial(i + 1)
            for j in range(i + 1, 6):
                assert pres.M[i][j] == 0

    def test_structure_constants_match_brute_force(self):
        pres = present(4)
        for i in range(1, 5):
            for j in range(1, 5):
                for l in range(1, 5):
                    assert pres.structure_constant(i, j, l) == mu_brute(i, j, l)

    def test_structure_constants_are_the_closed_form_on_every_triple(self):
        # the Stirling closed form, which shares no code with the
        # alternating sum present reads, on every triple in both orders of
        # each pair, zeros included, for every rank present accepts; the
        # stored terms are exactly its nonzero values for i <= j
        top = PRESENT_MAX_D
        oracle = {
            (i, j, l): mu_stirling(i, j, l)
            for i in range(1, top + 1)
            for j in range(1, top + 1)
            for l in range(1, top + 1)
        }
        for d in range(1, top + 1):
            pres = present(d)
            triples = list(product(range(1, d + 1), repeat=3))
            got = {(i, j, l): pres.structure_constant(i, j, l) for i, j, l in triples}
            assert got == {t: oracle[t] for t in triples}, d
            stored = {(i, j, l): v for i, j, terms in pres.table() for l, v in terms}
            assert stored == {(i, j, l): v for (i, j, l), v in got.items() if i <= j and v}, d

    def test_structure_constant_symmetry(self):
        pres = present(7)
        for i, j, l in product(range(1, 8), repeat=3):
            assert pres.structure_constant(j, i, l) == pres.structure_constant(i, j, l)

    def test_structure_constant_refuses_an_index_above_d_and_truncates_l(self):
        # the int rule for i, j and l is in test_combinat's INT_TAKERS
        pres = present(3)
        with pytest.raises(ValueError, match="^i 4 out of range 1..3$"):
            pres.structure_constant(4, 1, 4)
        with pytest.raises(ValueError, match="^j 4 out of range 1..3$"):
            pres.structure_constant(1, 4, 4)
        # l above d is outside the window: mu(2, 2, 4) = 1 is truncated
        assert pres.full_product(2, 2)[4] == 1
        assert pres.structure_constant(2, 2, 4) == 0
        assert pres.structure_constant(3, 3, 9) == 0

    def test_budget(self):
        with pytest.raises(BudgetError):
            present(17)

    def test_every_table_is_read_only_and_m_is_the_cached_ghost_matrix(self):
        # M and ghost cannot disagree, and no cached table can be changed
        for d in range(1, PRESENT_MAX_D + 1):
            pres = present(d)
            assert pres.M is burnside._ghost_matrix(d)
            for table in (pres.M, pres._lower, pres._products):
                with pytest.raises(TypeError):
                    table[0] = ()
                for row in table:
                    with pytest.raises(TypeError):
                        row[0] = 99
            ghosts = [pres.ghost(pres.basis(j)) for j in range(1, d + 1)]
            for i, j in product(range(1, d + 1), repeat=2):
                assert ghosts[j - 1][i - 1] == pres.M[i - 1][j - 1], (d, i, j)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_table_is_every_nonzero_structure_constant_in_order(self, d):
        # one row per pair i <= j, and the terms flattened in the (i, j, l)
        # order of `ring --table --json`
        pres = present(d)
        table = list(pres.table())
        assert [(i, j) for i, j, _ in table] == [
            (i, j) for i in range(1, d + 1) for j in range(i, d + 1)
        ]
        assert [(i, j, l, value) for i, j, terms in table for l, value in terms] == [
            (i, j, l, pres.structure_constant(i, j, l))
            for i, j, l in product(range(1, d + 1), repeat=3)
            if i <= j and pres.structure_constant(i, j, l)
        ]

    def test_full_product_keeps_tail_above_d(self):
        pres = present(3)
        assert pres.full_product(2, 2) == {2: 2, 3: 4, 4: 1}
        assert pres.full_product(3, 3)[9] == 1
        # the in-window constants are the truncation of the full ones
        for l in range(1, 4):
            assert pres.structure_constant(2, 2, l) == pres.full_product(2, 2).get(l, 0)


class TestRingArithmetic:
    def test_rank_three_relations(self):
        pres = present(3)
        x2, x3 = pres.basis(2), pres.basis(3)
        assert pres.multiply(x3, x3) == x3.scale(6)
        assert pres.multiply(x2, x3) == x3.scale(6)
        assert pres.multiply(x2, x2) == x2.scale(2) + x3.scale(4)

    def test_rank_two_is_order_two_group_ring(self):
        pres = present(2)
        x2 = pres.basis(2)
        assert pres.multiply(x2, x2) == x2.scale(2)

    def test_multiply_is_the_bilinear_sum(self):
        for d in range(1, PRESENT_MAX_D + 1):
            pres = present(d)
            elements = dense_elements(d, 6, seed=d)
            for a, b in zip(elements[::2], elements[1::2]):
                assert pres.multiply(a, b) == naive_multiply(pres, a, b), d
                assert pres.multiply(b, a) == naive_multiply(pres, b, a), d

    def test_a_list_is_stored_as_the_tuple(self):
        a = RingElement([1, 0])
        assert a == RingElement((1, 0)) and type(a.coeffs) is tuple
        assert hash(a) == hash(RingElement((1, 0)))

    def test_a_list_element_multiplies_as_its_tuple(self):
        # x_1 is the unit of the rank-2 ring
        a = RingElement([1, 0])
        assert present(2).multiply(a, a) == a

    @pytest.mark.parametrize("coeffs, bad", [((1.5, 1), 1.5), ((1, True), True), ([2, 2.0], 2.0)])
    def test_a_coefficient_that_is_not_an_int_is_refused(self, coeffs, bad):
        with pytest.raises(ValueError, match=f"^coefficient must be an int, got {bad}$"):
            RingElement(coeffs)
        # so is a factor: True * 2 is an int, which the constructor takes
        with pytest.raises(ValueError, match=f"^factor must be an int, got {bad}$"):
            RingElement((1, 2)).scale(bad)

    def test_an_operand_that_is_not_an_element_is_a_type_error(self):
        pres, a = present(2), RingElement((1, 2))
        with pytest.raises(TypeError, match="unsupported operand"):
            a + 1
        with pytest.raises(TypeError, match="unsupported operand"):
            a - (1, 2)
        for call, name in [
            (lambda: pres.multiply((1, 0), a), "a"),
            (lambda: pres.multiply(a, [1, 0]), "b"),
            (lambda: pres.ghost((1, 2)), "a"),
            (lambda: z_membership(pres, (1, 2), zariski_prime(2, 1, 0)), "a"),
        ]:
            with pytest.raises(TypeError, match=f"^{name} must be a RingElement, got <class "):
                call()

    def test_dimension_mismatch(self):
        pres = present(3)
        with pytest.raises(ValueError):
            pres.multiply(pres.basis(1), RingElement((1, 0)))

    @given(a=coeff_vectors(5))
    @settings(max_examples=60, deadline=None)
    def test_unit_acts_trivially(self, a):
        pres = present(5)
        assert pres.multiply(pres.one(), a) == a

    def test_unit_acts_trivially_up_to_rank_eight(self):
        import random

        rng = random.Random(7)
        for d in range(1, 9):
            pres = present(d)
            for _ in range(20):
                a = RingElement(tuple(rng.randint(-9, 9) for _ in range(d)))
                assert pres.multiply(pres.one(), a) == a

    @given(a=coeff_vectors(4), b=coeff_vectors(4))
    @settings(max_examples=60, deadline=None)
    def test_commutativity_on_random_elements(self, a, b):
        pres = present(4)
        assert pres.multiply(a, b) == pres.multiply(b, a)

    def test_commutativity_of_basis_pairs_up_to_rank_sixteen(self):
        pres = present(16)
        for i in range(1, 17):
            for j in range(1, i):
                xi, xj = pres.basis(i), pres.basis(j)
                assert pres.multiply(xi, xj) == pres.multiply(xj, xi)

    def test_triple_associativity(self):
        for d in range(1, 7):
            assert quotient_presentation_check(d)

    def test_associativity_budget(self):
        with pytest.raises(BudgetError):
            quotient_presentation_check(7)


class TestGhost:
    def test_rank_three_columns(self):
        pres = present(3)
        assert pres.ghost(pres.basis(3)) == (0, 0, 6)
        assert pres.ghost(pres.basis(2)) == (0, 2, 6)
        assert pres.ghost(pres.one()) == (1, 1, 1)

    def test_ghost_is_the_surjection_sum(self):
        for d in range(1, PRESENT_MAX_D + 1):
            pres = present(d)
            for a in dense_elements(d, 4, seed=100 + d) + [pres.basis(i) for i in range(1, d + 1)]:
                assert pres.ghost(a) == naive_ghost(a), d

    def test_hom_check_compares_the_seeded_products(self, monkeypatch):
        # every basis pair, then `trials` pairs of seeded draws in [-9, 9]
        d, trials, seed = 5, 4, 3
        pres = present(d)
        seen = []
        multiply = BurnsidePresentation.multiply

        def spy(self, a, b):
            seen.append((a, b))
            return multiply(self, a, b)

        monkeypatch.setattr(BurnsidePresentation, "multiply", spy)
        assert ghost_is_hom_check(d, trials, seed)
        rng = random.Random(seed)
        basis = [pres.basis(i) for i in range(1, d + 1)]
        draws = [
            tuple(RingElement(tuple(rng.randint(-9, 9) for _ in range(d))) for _ in range(2))
            for _ in range(trials)
        ]
        assert seen == list(chain(product(basis, repeat=2), draws))

    def test_multiplicative_on_all_small_ranks(self):
        for d in (1, 2, 3, 8):
            assert ghost_is_hom_check(d, trials=20)

    @given(a=coeff_vectors(5))
    @settings(max_examples=60, deadline=None)
    def test_injective_on_nonzero(self, a):
        pres = present(5)
        if not a.is_zero():
            assert any(v != 0 for v in pres.ghost(a))

    def test_inverse_is_exact(self):
        # (M^-1)_ij = s(i, j) / i!, signed Stirling numbers of the first
        # kind from their recurrence, checked over every d present accepts
        top = burnside.PRESENT_MAX_D
        s = [[1] + [0] * top]
        for n in range(1, top + 1):
            prev = s[-1]
            s.append([0] + [prev[k - 1] - (n - 1) * prev[k] for k in range(1, top + 1)])
        for d in range(1, top + 1):
            M = present(d).M
            inverse = [
                [Fraction(s[i][j], math.factorial(i)) for j in range(1, d + 1)]
                for i in range(1, d + 1)
            ]
            for i in range(d):
                for j in range(d):
                    entry = sum(M[i][m] * inverse[m][j] for m in range(d))
                    assert entry == (1 if i == j else 0), (d, i, j)


class TestCokernel:
    def test_reads_the_ghost_matrix_alone(self, monkeypatch):
        # the cokernel needs M only, so no structure constant is computed
        calls = []

        def spy(i, j, lo, hi):
            calls.append((i, j, lo, hi))
            return mu_row(i, j, lo, hi)

        monkeypatch.setattr(burnside, "mu_row", spy)
        present.cache_clear()
        burnside._ghost_matrix.cache_clear()
        try:
            invariants = cokernel_invariants(16)
            assert calls == []
            assert burnside._ghost_matrix(16) == present(16).M
            assert calls  # the spy sees the presentation's calls
        finally:
            present.cache_clear()
        assert factorial_product_group_matches(invariants, 16)

    def test_rank_one_trivial(self):
        assert cokernel_invariants(1) == [1]

    def test_rank_three_by_hand(self):
        invariants = cokernel_invariants(3)
        assert invariants == [1, 2, 6]
        assert math.prod(invariants) == math.prod(math.factorial(i) for i in (1, 2, 3))
        assert factorial_product_group_matches(invariants, 3)

    def test_group_matches_factorials_up_to_rank_eight(self):
        for d in range(1, 9):
            invariants = cokernel_invariants(d)
            assert math.prod(invariants) == math.prod(
                math.factorial(i) for i in range(1, d + 1)
            )
            assert factorial_product_group_matches(invariants, d)

    def test_group_matches_factorials_up_to_rank_sixteen(self):
        for d in range(1, 17):
            assert factorial_product_group_matches(cokernel_invariants(d), d)

    def test_free_summand_never_matches(self):
        # a 0 invariant factor is a Z summand, not a trivial group
        assert not factorial_product_group_matches([0], 1)
        assert not factorial_product_group_matches([0, 2], 2)
        assert not factorial_product_group_matches([1, 2, 0], 3)

    def test_factors_must_be_the_factorials_in_order(self):
        assert factorial_product_group_matches([1, 1, 2, 6], 3)
        assert not factorial_product_group_matches([1, 2], 3)
        assert not factorial_product_group_matches([1, 2, 6, 6], 3)
        assert not factorial_product_group_matches([1, 6, 2], 3)

    def test_divisibility_chain(self):
        invariants = cokernel_invariants(6)
        for a, b in zip(invariants, invariants[1:]):
            assert b % a == 0

    @pytest.mark.parametrize("d", range(1, PRESENT_MAX_D + 1))
    def test_invariants_are_the_factorials(self, d):
        assert cokernel_invariants(d) == [math.factorial(i) for i in range(1, d + 1)]


def is_invariant_chain(factors) -> bool:
    """d_1 | d_2 | ... with every factor >= 0 and any zeros last."""
    nonzero = [x for x in factors if x]
    return (
        all(x >= 0 for x in factors)
        and factors[: len(nonzero)] == nonzero
        and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    )


def sympy_factors(rows) -> list[int]:
    """sympy's Smith diagonal, made non-negative and padded with zeros
    to the size of the matrix."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    n = len(rows)
    theirs = sympy_snf(Matrix(rows))
    diag = [abs(int(theirs[i, i])) for i in range(min(theirs.shape))]
    return diag + [0] * (n - len(diag))


class TestSmithNormalForm:
    def test_against_sympy_on_ghost_matrices(self):
        for d in range(1, PRESENT_MAX_D + 1):
            mine = smith_normal_form(present(d).M)
            assert mine == sympy_factors(present(d).M), d
            assert is_invariant_chain(mine)

    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_against_sympy_on_random_matrices(self, rows):
        mine = smith_normal_form(rows)
        assert is_invariant_chain(mine), mine
        assert mine == sympy_factors(rows)

    @pytest.mark.parametrize(
        "rows, factors",
        [
            ([[2, 0], [0, 3]], [1, 6]),
            ([[0, 4], [6, 0]], [2, 12]),
            ([[0, 0], [0, 5]], [5, 0]),
            ([[2, 4], [4, 8]], [2, 0]),
            ([[-3]], [3]),
            ([], []),
        ],
    )
    def test_pinned_cases(self, rows, factors):
        assert smith_normal_form(rows) == factors

    def test_leaves_its_input_alone(self):
        rows = [[0, 4], [6, 0]]
        smith_normal_form(rows)
        assert rows == [[0, 4], [6, 0]]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2, 3], [4, 5, 6]])


class TestRingCheck:
    def test_verdicts_in_report_order(self):
        assert ring_check(4) == {
            "ghost multiplicativity (seed=0)": True,
            "triple associativity": True,
            "commutativity": True,
            "unit": True,
        }
        assert list(ring_check(7, trials=3, seed=2)) == [
            "ghost multiplicativity (seed=2)",
            "commutativity",
            "unit",
        ]

    def test_associativity_runs_exactly_within_its_budget(self):
        assert "triple associativity" in ring_check(burnside.ASSOCIATIVITY_MAX_D, trials=0)
        assert "triple associativity" not in ring_check(
            burnside.ASSOCIATIVITY_MAX_D + 1, trials=0
        )

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            ghost_is_hom_check(3, trials=-4)

    def test_trials_past_the_budget_refused_before_any_work(self, monkeypatch):
        def no_work(d):
            raise AssertionError("built a presentation")

        monkeypatch.setattr(burnside, "present", no_work)
        over = burnside.GHOST_TRIALS_BUDGET + 1
        with pytest.raises(BudgetError, match="ghost trial budget exceeded"):
            ghost_is_hom_check(16, trials=over)
        with pytest.raises(BudgetError, match="ghost trial budget exceeded"):
            ring_check(16, trials=over)

    def test_trials_at_the_budget_run(self, monkeypatch):
        monkeypatch.setattr(burnside, "GHOST_TRIALS_BUDGET", 3)
        assert ghost_is_hom_check(4, trials=3)
        with pytest.raises(BudgetError):
            ghost_is_hom_check(4, trials=4)

    def test_ghost_failure_is_reported(self, monkeypatch):
        monkeypatch.setattr(burnside, "ghost_is_hom_check", lambda d, trials, seed: False)
        assert ring_check(3)["ghost multiplicativity (seed=0)"] is False

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_a_corrupted_product_term_fails_the_check(self, run_cli, monkeypatch, d):
        # the first nonzero term of x_i x_d, i = d // 2 + 1, off by one in
        # a fresh presentation: the ghost check must see it
        i = d // 2 + 1

        def corrupted(a, b, lo, hi):
            row = mu_row(a, b, lo, hi)
            if (a, b) == (i, d):
                k = next(k for k, value in enumerate(row) if value)
                row[k] += 1
            return row

        monkeypatch.setattr(burnside, "mu_row", corrupted)
        present.cache_clear()
        try:
            assert present(d).structure_constant(i, d, d) == mu_stirling(i, d, d) + 1
            assert ghost_is_hom_check(d, trials=0) is False
            code, out, _ = run_cli(["ring", str(d), "--check"])
        finally:
            present.cache_clear()
        assert code == 1
        assert "ghost multiplicativity (seed=0): FAIL" in out.splitlines()

    @pytest.mark.parametrize("d", ["4", "16"])
    def test_one_query_builds_one_presentation(self, run_cli, monkeypatch, d):
        built = []
        original = BurnsidePresentation.__init__

        def spy(self, rank):
            built.append(rank)
            original(self, rank)

        monkeypatch.setattr(BurnsidePresentation, "__init__", spy)
        present.cache_clear()
        try:
            code, out, _ = run_cli(["ring", d, "--check"])
        finally:
            present.cache_clear()
        assert code == 0 and "FAIL" not in out
        assert built == [int(d)]
