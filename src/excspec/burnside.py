"""The degree-d Burnside ring: free abelian group on x_1..x_d with
x_i x_j = sum_l mu(i,j,l) x_l, its ghost homomorphism into prod Z, and
exact verification of the defining short exact sequence via integer
normal forms.

Structure constants with index above d are truncated to zero (products
leave the degree-d window); the untruncated decomposition is kept
available through :meth:`BurnsidePresentation.full_product`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from operator import mul

from .combinat import check_budget, check_height, check_layer, mu_row, surjections

__all__ = [
    "RingElement",
    "BurnsidePresentation",
    "present",
    "ghost_is_hom_check",
    "cokernel_invariants",
    "quotient_presentation_check",
    "ring_check",
    "smith_normal_form",
    "factorial_product_group_matches",
]

PRESENT_MAX_D = 16
ASSOCIATIVITY_MAX_D = 6  # the triple sweep makes d**3 products of products
GHOST_TRIALS_BUDGET = 10_000  # about 0.25 ms a trial at d = 16


@dataclass(frozen=True)
class RingElement:
    """Element of the rank-d ring, as the integer coefficient vector of
    (x_1, ..., x_d).  Any sequence of ints is stored as a tuple, so equal
    elements compare and hash equal; any other coefficient, a bool or a
    float included, is refused."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs) -> None:
        # one attribute write, not __post_init__'s second: every product is built here
        coeffs = tuple(coeffs)
        for c in coeffs:
            if type(c) is not int:
                raise ValueError(f"coefficient must be an int, got {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def _check(self, other: "RingElement") -> None:
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        return RingElement(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        return RingElement(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RingElement":
        return RingElement(tuple(-a for a in self.coeffs))

    def scale(self, n: int) -> "RingElement":
        if type(n) is not int:
            raise ValueError(f"factor must be an int, got {n!r}")
        return RingElement(tuple(n * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


def _require_element(name: str, a) -> None:
    if not isinstance(a, RingElement):
        raise TypeError(f"{name} must be a RingElement, got {type(a)!r}")


class BurnsidePresentation:
    """Multiplication table and ghost matrix of the rank-d ring.
    Immutable after construction, every table a tuple; safe to share.
    Each unordered basis pair's structure constants mu(i, j, l),
    l = max(i, j)..min(d, i*j), come from one `mu_row` pass.  No query
    needs the ghost matrix's inverse, s(i,j)/i!; the tests check it
    exactly for every d that `present` accepts."""

    def __init__(self, d: int):
        self.M = _ghost_matrix(d)
        self.d = d
        # M is lower triangular: row i-1 ends at its diagonal entry i!
        self._lower = tuple(row[:i] for i, row in enumerate(self.M, 1))
        # _products[i-1][j-i], i <= j: x_i x_j's nonzero (l, mu(i, j, l))
        self._products = tuple(
            tuple(
                tuple((l, v) for l, v in enumerate(mu_row(i, j, j, min(d, i * j)), j) if v)
                for j in range(i, d + 1)
            )
            for i in range(1, d + 1)
        )

    # -- elements ----------------------------------------------------------

    def basis(self, i: int) -> RingElement:
        check_layer(self.d, i, "i")
        return RingElement(tuple(1 if j == i else 0 for j in range(1, self.d + 1)))

    def one(self) -> RingElement:
        return self.basis(1)

    def structure_constant(self, i: int, j: int, l: int) -> int:
        """mu(i, j, l) for basis indices i and j; 0 for l above d, the
        truncation of the degree-d window."""
        check_layer(self.d, i, "i")
        check_layer(self.d, j, "j")
        check_height("l", l, 1)
        return next((v for m, v in self._products[min(i, j) - 1][abs(i - j)] if m == l), 0)

    def full_product(self, i: int, j: int) -> dict[int, int]:
        """Untruncated basis product: all of mu(i, j, l) for
        max(i,j) <= l <= i*j, ignoring the degree-d window."""
        check_layer(self.d, i, "i")
        check_layer(self.d, j, "j")
        lo = max(i, j)
        return dict(zip(range(lo, i * j + 1), mu_row(i, j, lo, i * j)))

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        """Bilinear extension of the basis products; commutative.  Visits
        each unordered pair i <= j of the union support of a and b once."""
        _require_element("a", a)
        _require_element("b", b)
        ac, bc = a.coeffs, b.coeffs
        if len(ac) != self.d or len(bc) != self.d:
            raise ValueError("dimension mismatch with presentation")
        out = [0] * (self.d + 1)  # out[l] for l = 1..d
        support = []  # the union support at and above i
        for i in range(self.d - 1, -1, -1):
            if ac[i] or bc[i]:
                ai, bi, row = ac[i], bc[i], self._products[i]
                support.append(i)
                for j in support:
                    c = ai * bc[j] + ac[j] * bi if j > i else ai * bi
                    if c:
                        for l, value in row[j - i]:
                            out[l] += c * value
        return RingElement(tuple(out[1:]))

    def ghost(self, a: RingElement) -> tuple[int, ...]:
        """Image of a under the ghost homomorphism into prod Z;
        component i is sum_j surjections(i, j) * a_j."""
        _require_element("a", a)
        if a.dim != self.d:
            raise ValueError("dimension mismatch with presentation")
        return tuple(sum(map(mul, row, a.coeffs)) for row in self._lower)

    def table(self):
        """The multiplication table, one basis product x_i x_j per pair
        i <= j, ascending: (i, j, terms), where terms are the nonzero
        (l, mu(i, j, l)) with l ascending."""
        for i, row in enumerate(self._products, 1):
            for j, terms in enumerate(row, i):
                yield i, j, terms


@lru_cache(maxsize=None, typed=True)
def _ghost_matrix(d: int) -> tuple[tuple[int, ...], ...]:
    """The ghost matrix of rank d, M[i][j] = surjections(i+1, j+1) in
    0-indexed storage.  The cokernel reads nothing else, so it is built
    apart from the structure constants; the rank check is here, for the
    presentation and the cokernel alike.  Cached by type as well as
    value, so that a bool or a float d reaches the check."""
    check_height("d", d, 1)
    check_budget("presentation", d, PRESENT_MAX_D, "layers")
    return tuple(
        tuple(surjections(i, j) if j <= i else 0 for j in range(1, d + 1))
        for i in range(1, d + 1)
    )


@lru_cache(maxsize=None, typed=True)
def present(d: int) -> BurnsidePresentation:
    """Build the full presentation for rank d (budget: d <= 16).  Cached,
    by type as well as value: a presentation is immutable, so every
    check of one query shares it."""
    return BurnsidePresentation(d)


def ghost_is_hom_check(d: int, trials: int = 50, seed: int = 0) -> bool:
    """Verify ghost(a*b) == ghost(a) . ghost(b) componentwise on every
    basis pair plus `trials` seeded random elements with small coefficients.
    The ghost of each basis element and of each drawn element is taken
    once.  A False return signals a structure-constant bug.  More than
    GHOST_TRIALS_BUDGET trials are refused before any work."""
    check_height("trials", trials, 0)
    check_budget("ghost trial", trials, GHOST_TRIALS_BUDGET, "trials")
    pres = present(d)
    rng = random.Random(seed)

    def with_ghost(a):
        return a, pres.ghost(a)

    basis = [with_ghost(pres.basis(i)) for i in range(1, d + 1)]
    randoms = (
        [with_ghost(RingElement(tuple(rng.randint(-9, 9) for _ in range(d)))) for _ in range(2)]
        for _ in range(trials)
    )
    return all(
        pres.ghost(pres.multiply(a, b)) == tuple(map(mul, ga, gb))
        for (a, ga), (b, gb) in chain(product(basis, repeat=2), randoms)
    )


def quotient_presentation_check(d: int) -> bool:
    """Full triple-associativity sweep of the basis monomials: the table
    must satisfy (x_i x_j) x_k == x_i (x_j x_k) for all i, j, k."""
    check_budget("quotient_presentation_check", d, ASSOCIATIVITY_MAX_D, "layers")
    pres = present(d)
    basis = [pres.basis(i) for i in range(1, d + 1)]
    square = [[pres.multiply(a, b) for b in basis] for a in basis]  # x_i x_j, once
    return all(
        pres.multiply(square[i][j], basis[k]) == pres.multiply(basis[i], square[j][k])
        for i, j, k in product(range(d), repeat=3)
    )


def ring_check(d: int, trials: int = 50, seed: int = 0) -> dict[str, bool]:
    """The ring-axiom verdicts of rank d, by name in report order: ghost
    multiplicativity (see `ghost_is_hom_check`), triple associativity
    while d is within its budget, then commutativity and the unit law
    on the basis."""
    checks = {
        f"ghost multiplicativity (seed={seed})": ghost_is_hom_check(d, trials, seed)
    }
    pres = present(d)
    if d <= ASSOCIATIVITY_MAX_D:
        checks["triple associativity"] = quotient_presentation_check(d)
    basis = [pres.basis(i) for i in range(1, d + 1)]
    checks["commutativity"] = all(
        pres.multiply(a, b) == pres.multiply(b, a) for a, b in product(basis, repeat=2)
    )
    checks["unit"] = all(pres.multiply(pres.one(), x) == x for x in basis)
    return checks


# ---------------------------------------------------------------------------
# integer normal form
# ---------------------------------------------------------------------------


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of a square integer matrix, as
    non-negative invariant factors d_1 | d_2 | ..., zeros last.

    One elimination loop.  Each round moves an entry of least absolute
    value in the remaining block to the pivot (entries here grow like
    i!, and naive pivoting causes coefficient explosion) and clears the
    pivot's row and column by division with remainder.  A remainder, or
    an entry of the block that the pivot does not divide (its row is
    added to the pivot row), leaves a smaller entry for the next round.
    So each pivot ends dividing its whole block, and the chain holds by
    construction.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("smith_normal_form expects a square matrix")
    for t in range(n):
        while True:
            block = [(abs(a[r][c]), r, c) for r in range(t, n) for c in range(t, n) if a[r][c]]
            if not block:
                break
            _, r, c = min(block)  # a tie keeps the pivot in its place
            a[t], a[r] = a[r], a[t]
            for row in a:
                row[t], row[c] = row[c], row[t]
            pivot = a[t][t]
            for r in range(t + 1, n):
                q = a[r][t] // pivot
                if q:
                    for c in range(t, n):
                        a[r][c] -= q * a[t][c]
            for c in range(t + 1, n):
                q = a[t][c] // pivot
                if q:
                    for r in range(t, n):
                        a[r][c] -= q * a[r][t]
            if any(a[r][t] for r in range(t + 1, n)) or any(a[t][t + 1 :]):
                continue  # a remainder is left: the next, smaller pivot
            r = next((r for r in range(t + 1, n) if any(x % pivot for x in a[r][t + 1 :])), None)
            if r is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[r])]
    return [abs(a[i][i]) for i in range(n)]


def cokernel_invariants(d: int) -> list[int]:
    """Invariant factors of the ghost matrix: the cokernel of the ghost
    map as a finite abelian group."""
    return smith_normal_form(_ghost_matrix(d))


def factorial_product_group_matches(invariants: list[int], d: int) -> bool:
    """Whether the group with the given invariant factors d_1 | d_2 | ...
    is isomorphic to Z/1! x Z/2! x ... x Z/d!.  Since i! divides (i+1)!,
    that product is already in invariant-factor form, so the non-unit
    factors must be exactly 2!, ..., d! in order; a 0 factor (a free Z
    summand) never matches."""
    return [n for n in invariants if n != 1] == [math.factorial(i) for i in range(2, d + 1)]
