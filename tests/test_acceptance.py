"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to
see them).  Every comparison is exact integer equality; the quoted time
is informational against the stated per-criterion budget."""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import dot_nodes_and_edges

from excspec.balmer import (
    b_truncation,
    open_embedding_check,
    rho,
    smith_holds,
)
from excspec.burnside import (
    cokernel_invariants,
    factorial_product_group_matches,
    present,
    quotient_presentation_check,
)
from excspec.classify import (
    TruncationError,
    enumerate_p_admissible,
    function_from_thomason,
    PAdmissibleFunction,
    thomason_from_function,
    validate_thomason,
)
from excspec.combinat import (
    INF,
    delta_p,
    delta_p_brute,
    mu_brute,
    mu_incl_excl,
    mu_stirling,
    ppp_enumerate,
    ppp_exists,
)
from excspec.hzspec import hz_base_change, hz_leq, hz_points, hz_admissible_subset
from excspec.zariski import z_leq

PRIMES_TO_13 = [2, 3, 5, 7, 11, 13]


@contextmanager
def criterion(number: int, budget_s: float, description: str):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed else "PASS"
        print(
            f"criterion {number:2d}: {verdict} "
            f"({elapsed:.2f}s / budget {budget_s:g}s) - {description}"
        )


def test_criterion_01_rank_three_ring():
    with criterion(1, 1, "rank-3 relations and ghost matrix, exact"):
        pres = present(3)
        x2, x3 = pres.basis(2), pres.basis(3)
        assert pres.multiply(x3, x3) == x3.scale(6)
        assert pres.multiply(x2, x3) == x3.scale(6)
        assert pres.multiply(x2, x2) == x2.scale(2) + x3.scale(4)
        assert pres.M == [[1, 0, 0], [1, 2, 0], [1, 6, 6]]


def test_criterion_02_mu_methods_agree():
    with criterion(2, 10, "mu values and 3-way method agreement, i*j <= 20"):
        assert mu_incl_excl(2, 2, 2) == 2
        assert mu_incl_excl(2, 2, 3) == 4
        assert mu_incl_excl(2, 2, 4) == 1
        for i in range(1, 21):
            for j in range(1, 20 // i + 1):
                for k in range(1, i * j + 2):
                    b = mu_brute(i, j, k)
                    assert mu_incl_excl(i, j, k) == b, (i, j, k)
                    assert mu_stirling(i, j, k) == b, (i, j, k)


def test_criterion_03_exact_sequence():
    with criterion(3, 5, "det M = prod i! and cokernel = prod Z/i!, d <= 8"):
        for d in range(1, 9):
            pres = present(d)
            det = math.prod(pres.M[i][i] for i in range(d))
            assert det == math.prod(math.factorial(i) for i in range(1, d + 1))
            invariants = cokernel_invariants(d)
            assert math.prod(invariants) == det
            assert factorial_product_group_matches(invariants, d)


def test_criterion_04_ring_axioms():
    with criterion(4, 5, "associativity/commutativity/unit sweep, d <= 6"):
        for d in range(1, 7):
            assert quotient_presentation_check(d)
            pres = present(d)
            for i in range(1, d + 1):
                assert pres.multiply(pres.one(), pres.basis(i)) == pres.basis(i)
                for j in range(1, d + 1):
                    assert pres.multiply(pres.basis(i), pres.basis(j)) == pres.multiply(
                        pres.basis(j), pres.basis(i)
                    )


def test_criterion_05_delta_oracle_equivalence():
    with criterion(5, 10, "delta = brute chain search, p <= 13, k <= 32"):
        for p in PRIMES_TO_13:
            for k in range(1, 33):
                for l in range(1, k + 1):
                    value = delta_p(p, k, l)
                    assert value in (0, 1, 2, INF)
                    assert value == delta_p_brute(p, k, l), (p, k, l)


def test_criterion_06_partition_criterion():
    with criterion(6, 5, "partition criterion = enumeration, p <= 13, k <= 32"):
        for p in PRIMES_TO_13:
            for k in range(1, 33):
                for l in range(1, k + 1):
                    assert ppp_exists(p, k, l) == bool(ppp_enumerate(p, k, l))


def _order_matrix(trunc):
    n = len(trunc.points)
    mat = np.zeros((n, n), dtype=bool)
    for i in range(n):
        mat[i, i] = True
    for i, j in trunc.relation:
        mat[i, j] = True
    return mat


def test_criterion_07_poset_axioms():
    with criterion(7, 20, "partial order + monotonicity, d <= 6, Hmax <= 6"):
        for d in range(1, 7):
            for hmax in (1, 6):
                trunc = b_truncation(d, [2, 3, 5, 7], hmax, include_infinity=True)
                mat = _order_matrix(trunc)
                # antisymmetry
                assert not np.any(mat & mat.T & ~np.eye(len(mat), dtype=bool))
                # transitivity: reachability adds nothing
                closure = (mat.astype(np.uint8) @ mat.astype(np.uint8)) > 0
                assert not np.any(closure & ~mat)
                for i, j in trunc.relation:
                    a, b = trunc.points[i], trunc.points[j]
                    assert a.layer >= b.layer
                    assert a.height >= b.height


def test_criterion_08_comparison_map_reverses_order():
    with criterion(8, 10, "rho reverses containment on every truncation"):
        for d in range(1, 7):
            trunc = b_truncation(d, [2, 3, 5, 7], 6, include_infinity=True)
            for i, j in trunc.relation:
                a, b = trunc.points[i], trunc.points[j]
                assert z_leq(rho(b), rho(a)), (a, b)


def test_criterion_09_open_embeddings():
    with criterion(9, 10, "open embeddings for all 1 <= m <= d <= 5"):
        for d in range(1, 6):
            for m in range(1, d + 1):
                assert open_embedding_check(m, d, [2, 3], 4), (m, d)


def test_criterion_10_classification_round_trip():
    with criterion(10, 20, "threshold functions <-> valid subsets, d <= 3"):
        p = 2
        for d in (1, 2, 3):
            for hmax in (1, 2, 3):
                trunc = b_truncation(d, [p], hmax, include_infinity=True)
                _, functions = enumerate_p_admissible(d, p, hmax, with_list=True)
                shadows = {}
                for values in functions:
                    f = PAdmissibleFunction(d, p, values)
                    try:
                        Y = thomason_from_function(f, trunc)
                    except TruncationError:
                        continue
                    assert Y.points not in shadows.values()
                    shadows[values] = Y.points
                pts = list(trunc.points)
                valid = set()
                for bits in range(1 << len(pts)):
                    members = frozenset(
                        pts[i] for i in range(len(pts)) if bits >> i & 1
                    )
                    try:
                        validate_thomason(members, trunc)
                    except ValueError:
                        continue
                    valid.add(members)
                assert set(shadows.values()) == valid
                for values, members in shadows.items():
                    back = function_from_thomason(members, trunc)
                    assert back.values == (values,)
                    assert thomason_from_function(back, trunc).points == members


def test_criterion_11_integral_coefficients():
    with criterion(11, 10, "integral-coefficient spectrum: order, embedding"):
        pts = hz_points(8, PRIMES_TO_13)
        for a in pts:
            assert hz_leq(a, a)
        for a, b in itertools.product(pts, repeat=2):
            if a != b and hz_leq(a, b) and hz_leq(b, a):
                pytest.fail(f"antisymmetry violated at {a}, {b}")
        for a, b, c in itertools.product(pts, repeat=3):
            if hz_leq(a, b) and hz_leq(b, c):
                assert hz_leq(a, c)

        primes = [2, 3, 5]
        embedded = hz_points(4, primes)
        trunc = b_truncation(4, primes, 2, include_infinity=True)
        images = [hz_base_change(a) for a in embedded]
        assert len(set(images)) == len(embedded)
        for img in images:
            assert img in trunc
        from excspec.balmer import b_leq

        for a, b in itertools.product(embedded, repeat=2):
            assert hz_leq(a, b) == b_leq(hz_base_change(a), hz_base_change(b))

        d, primes2 = 4, [2, 3]
        pts2 = hz_points(d, primes2)
        for bits in range(1 << len(pts2)):
            subset = [pts2[i] for i in range(len(pts2)) if bits >> i & 1]
            members = set(subset)
            closed = all(
                a in members for b in subset for a in pts2 if hz_leq(a, b)
            )
            got = hz_admissible_subset(
                [(q.layer, q.residue) for q in subset], d, primes2
            )
            assert got == closed


def test_criterion_12_smith_floyd():
    with criterion(12, 1, "vanishing queries match height thresholds"):
        for n in range(7):
            for h in range(7):
                assert smith_holds(4, 2, 4, 2, n, h) == (n >= h + 1), (n, h)
                assert smith_holds(3, 2, 3, 1, n, h) == (n >= h + 2), (n, h)


def test_criterion_13_golden_determinism(run_cli):
    with criterion(13, 1, "CLI DOT output byte-identical and well-formed"):
        for argv in (
            ["spec", "balmer", "-d", "3", "-p", "2,3,5", "-H", "2", "--dot"],
            ["spec", "zariski", "-d", "3", "-p", "2,3,5", "--dot"],
        ):
            code1, out1, _ = run_cli(argv)
            code2, out2, _ = run_cli(argv)
            assert code1 == code2 == 0
            assert out1 == out2
            nodes, edges = dot_nodes_and_edges(out1)
            assert nodes
            for a, b in edges:
                assert a in nodes and b in nodes
