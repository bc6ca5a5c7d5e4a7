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

from .combinat import BudgetError, mu_incl_excl, surjections

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
GHOST_TRIALS_BUDGET = 10_000  # about 0.5 ms a trial at d = 16


@dataclass(frozen=True)
class RingElement:
    """Element of the rank-d ring, as the integer coefficient vector of
    (x_1, ..., x_d)."""

    coeffs: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def _check(self, other: "RingElement") -> None:
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RingElement":
        return RingElement(tuple(-a for a in self.coeffs))

    def scale(self, n: int) -> "RingElement":
        return RingElement(tuple(n * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


class BurnsidePresentation:
    """Multiplication table and ghost matrix of the rank-d ring.
    Immutable after construction; safe to share.  No query needs the
    ghost matrix's inverse, s(i,j)/i!; the tests check it exactly for
    every d that `present` accepts."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        if d > PRESENT_MAX_D:
            raise BudgetError(f"presentation budget exceeded: d = {d} > {PRESENT_MAX_D}")
        self.d = d
        # mu[(i, j, l)] for 1 <= i, j, l <= d, nonzero entries only
        self.mu: dict[tuple[int, int, int], int] = {}
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                for l in range(max(i, j), min(d, i * j) + 1):
                    value = mu_incl_excl(i, j, l)
                    if value:
                        self.mu[(i, j, l)] = value
        # ghost matrix M[i][j] = surjections(i+1, j+1), 0-indexed storage
        self.M: list[list[int]] = [
            [surjections(i, j) if j <= i else 0 for j in range(1, d + 1)]
            for i in range(1, d + 1)
        ]

    # -- elements ----------------------------------------------------------

    def basis(self, i: int) -> RingElement:
        if not 1 <= i <= self.d:
            raise ValueError(f"basis index {i} out of range 1..{self.d}")
        return RingElement(tuple(1 if j == i else 0 for j in range(1, self.d + 1)))

    def one(self) -> RingElement:
        return self.basis(1)

    def structure_constant(self, i: int, j: int, l: int) -> int:
        return self.mu.get((i, j, l), 0)

    def full_product(self, i: int, j: int) -> dict[int, int]:
        """Untruncated basis product: all of mu(i, j, l) for
        max(i,j) <= l <= i*j, ignoring the degree-d window."""
        if not (1 <= i <= self.d and 1 <= j <= self.d):
            raise ValueError("basis index out of range")
        return {l: mu_incl_excl(i, j, l) for l in range(max(i, j), i * j + 1)}

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        """Bilinear extension of the basis products; commutative."""
        if a.dim != self.d or b.dim != self.d:
            raise ValueError("dimension mismatch with presentation")
        out = [0] * self.d
        for i in range(1, self.d + 1):
            ai = a.coeffs[i - 1]
            if not ai:
                continue
            for j in range(1, self.d + 1):
                bj = b.coeffs[j - 1]
                if not bj:
                    continue
                for l in range(max(i, j), min(self.d, i * j) + 1):
                    c = self.mu.get((i, j, l))
                    if c:
                        out[l - 1] += ai * bj * c
        return RingElement(tuple(out))

    def ghost(self, a: RingElement) -> tuple[int, ...]:
        """Image of a under the ghost homomorphism into prod Z;
        component i is sum_j surjections(i, j) * a_j."""
        if a.dim != self.d:
            raise ValueError("dimension mismatch with presentation")
        return tuple(
            sum(self.M[i][j] * a.coeffs[j] for j in range(self.d))
            for i in range(self.d)
        )

    def table_lines(self) -> list[str]:
        """Human-readable multiplication table, one basis product per line."""
        lines = []
        for i in range(1, self.d + 1):
            for j in range(i, self.d + 1):
                terms = [
                    f"{self.mu[(i, j, l)]} x{l}"
                    for l in range(1, self.d + 1)
                    if (i, j, l) in self.mu
                ]
                rhs = " + ".join(terms) if terms else "0"
                lines.append(f"x{i}*x{j} = {rhs}")
        return lines


@lru_cache(maxsize=None)
def present(d: int) -> BurnsidePresentation:
    """Build the full presentation for rank d (budget: d <= 16).  Cached:
    a presentation is immutable, so every check of one query shares it."""
    return BurnsidePresentation(d)


def ghost_is_hom_check(d: int, trials: int = 50, seed: int = 0) -> bool:
    """Verify ghost(a*b) == ghost(a) . ghost(b) componentwise on every
    basis pair plus `trials` seeded random elements with small coefficients.
    A False return signals a structure-constant bug.  More than
    GHOST_TRIALS_BUDGET trials are refused before any work."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if trials > GHOST_TRIALS_BUDGET:
        raise BudgetError(
            f"ghost trial budget exceeded: trials = {trials} > {GHOST_TRIALS_BUDGET}"
        )
    pres = present(d)
    rng = random.Random(seed)
    basis = [pres.basis(i) for i in range(1, d + 1)]
    randoms = (
        [RingElement(tuple(rng.randint(-9, 9) for _ in range(d))) for _ in range(2)]
        for _ in range(trials)
    )
    return all(
        pres.ghost(pres.multiply(a, b))
        == tuple(x * y for x, y in zip(pres.ghost(a), pres.ghost(b)))
        for a, b in chain(product(basis, repeat=2), randoms)
    )


def quotient_presentation_check(d: int) -> bool:
    """Full triple-associativity sweep of the basis monomials: the table
    must satisfy (x_i x_j) x_k == x_i (x_j x_k) for all i, j, k."""
    if d > ASSOCIATIVITY_MAX_D:
        raise BudgetError(
            f"quotient_presentation_check budget exceeded: d = {d} > {ASSOCIATIVITY_MAX_D}"
        )
    pres = present(d)
    basis = [pres.basis(i) for i in range(1, d + 1)]
    return all(
        pres.multiply(pres.multiply(a, b), c) == pres.multiply(a, pres.multiply(b, c))
        for a, b, c in product(basis, repeat=3)
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
    a = [row[:] for row in matrix]
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
    pres = present(d)
    return smith_normal_form(pres.M)


def factorial_product_group_matches(invariants: list[int], d: int) -> bool:
    """Whether the group with the given invariant factors d_1 | d_2 | ...
    is isomorphic to Z/1! x Z/2! x ... x Z/d!.  Since i! divides (i+1)!,
    that product is already in invariant-factor form, so the non-unit
    factors must be exactly 2!, ..., d! in order; a 0 factor (a free Z
    summand) never matches."""
    return [n for n in invariants if n != 1] == [math.factorial(i) for i in range(2, d + 1)]
