"""Exact counting primitives and p-power partition machinery.

Everything here is arbitrary-precision integer arithmetic: surjection
counts grow like i! and overflow 64-bit machine words near i = 21, so no
fixed-width shortcut is taken anywhere.  The one float here, INF, is
math.inf: Python compares it exactly with ints of any size, and it
absorbs addition.  Brute-force routines carry hard enumeration budgets
and raise :class:`BudgetError` through `check_budget`, the package's one
budget rule, instead of silently truncating; they serve as oracles for
the closed-form routines and must never lie.  Like the rest of the
package they need only the standard library.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import lru_cache
from typing import Iterable, Union

__all__ = [
    "INF",
    "NatInfinity",
    "BudgetError",
    "stirling2",
    "stirling1",
    "surjections",
    "mu_brute",
    "mu_incl_excl",
    "mu_row",
    "mu_stirling",
    "digit_sum",
    "ppp_exists",
    "ppp_enumerate",
    "delta_p",
    "layer_class",
    "delta_p_brute",
    "shortest_ppp_chain",
    "is_prime",
    "check_window",
    "check_height",
    "check_layer",
    "check_prime",
    "check_char",
    "check_budget",
]

MU_BRUTE_CELL_BUDGET = 20  # count every good subset only up to here
MU_INCL_EXCL_CELL_BUDGET = 5000  # (i+1)(j+1) binomials of up to i*j bits each
MU_STIRLING_K_BUDGET = 1000  # the signed Stirling row k costs ~k**2 big-int steps
PARTITION_BUDGET = 64  # largest k for which p-power partitions are enumerated


class BudgetError(Exception):
    """An enumeration exceeded its hard budget; the caller must use a
    formula-based method instead."""


def check_budget(name: str, amount, limit, unit: str) -> None:
    """The one rule for a budget: raise BudgetError when amount exceeds
    limit.  Each caller passes its own module's constant, read at call
    time; where only a lower bound of the amount is known it is passed,
    and the message stays true."""
    if amount > limit:
        raise BudgetError(f"{name} budget exceeded: more than {limit} {unit}")


# The top of N with infinity.  A computed infinity (1 + INF) is a new
# float object, so compare with ==, never with `is`.
INF = math.inf

NatInfinity = Union[int, float]


# Miller-Rabin over the first 13 prime bases is exact below the smallest
# strong pseudoprime to all of them (OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality check, exact for
    p < MR_EXACT_BELOW (about 3.3e24); a larger p with no factor among
    the bases is refused with BudgetError.  Cached, since every
    blueshift distance re-checks its prime."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    check_budget("is_prime", p, MR_EXACT_BELOW - 1, "as p")
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _MR_BASES:
        x = pow(a, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(name: str, value) -> None:
    """The one rule for a prime argument: an int that is not a bool, and
    prime.  Raises ValueError naming the value given."""
    if type(value) is not int or not is_prime(value):
        raise ValueError(f"{name} must be prime, got {value!r}")


def check_char(name: str, value) -> None:
    """The one rule for a characteristic or residue: the int 0, or a
    prime by `check_prime`.  Raises ValueError naming the value given."""
    if type(value) is not int or value != 0:
        check_prime(name, value)


def check_window(d: int, primes: Iterable[int]) -> tuple[int, ...]:
    """Validated scope of a degree-d window: d passes `check_height`
    with floor 1, and the primes are non-empty and each pass
    `check_prime` (a repeat too, so 3.0 beside 3 is refused); returned
    sorted and without repeats.  Every constructor of a window-shaped
    object checks its input here."""
    check_height("d", d, 1)
    prime_list = sorted(primes)
    if not prime_list:
        raise ValueError("prime set must be non-empty")
    for p in prime_list:
        check_prime("p", p)
    return tuple(dict.fromkeys(prime_list))


def check_layer(d, layer, name: str = "layer") -> None:
    """The one rule for a layer, or a basis index, of the degree-d
    window: d and the layer each pass `check_height` with floor 1, and
    layer <= d.  Raises ValueError naming the value given."""
    check_height("d", d, 1)
    check_height(name, layer, 1)
    if layer > d:
        raise ValueError(f"{name} {layer} out of range 1..{d}")


def check_height(name: str, value, floor: int, infinite: bool = False) -> None:
    """The one rule for an int argument: an int that is not a bool and
    is at least floor, or INF where the value may be infinite (a
    height).  Raises ValueError naming the value given."""
    if infinite and value == INF:
        return
    if type(value) is not int or value < floor:
        also = " or INF" if infinite else ""
        raise ValueError(f"{name} must be an int >= {floor}{also}, got {value!r}")


# ---------------------------------------------------------------------------
# basic counts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    row = [1]  # S(0, k) for k = 0..n
    for m in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
    return tuple(row)


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[int, ...]:
    row = [1]  # s(0, k) for k = 0..n
    for m in range(1, n + 1):
        row = [0] + [row[k - 1] - (m - 1) * row[k] for k in range(1, m)] + [1]
    return tuple(row)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k): partitions of an
    n-set into k nonempty blocks, zero for k > n.  Row n is built
    iteratively by S(m, k) = k S(m-1, k) + S(m-1, k-1) and cached; as a
    row costs cubic time, n is refused past MU_STIRLING_K_BUDGET."""
    check_height("n", n, 0)
    check_height("k", k, 0)
    check_budget("stirling2", n, MU_STIRLING_K_BUDGET, "rows")
    return _stirling2_row(n)[k] if k <= n else 0


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k), zero for k > n.
    Row n is built iteratively by s(m, k) = s(m-1, k-1) - (m-1) s(m-1, k)
    and cached, so a caller reading all of row n pays O(n**2) big-int
    steps once; n is refused past MU_STIRLING_K_BUDGET, as stirling2."""
    check_height("n", n, 0)
    check_height("k", k, 0)
    check_budget("stirling1", n, MU_STIRLING_K_BUDGET, "rows")
    return _stirling1_row(n)[k] if k <= n else 0


@lru_cache(maxsize=None, typed=True)
def surjections(i: int, j: int) -> int:
    """Number of surjections from an i-set onto a j-set.

    Inclusion-exclusion: j^i + sum_{s=1}^{j-1} (-1)^s C(j,s) (j-s)^i.
    Returns 0 when j > i (no error: the vanishing is meaningful).
    Cached by type as well as value, so that 2.0 reaches the check
    after 2 has filled the cache.
    """
    check_height("i", i, 1)
    check_height("j", j, 1)
    total = j**i
    for s in range(1, j):
        total += (-1) ** s * math.comb(j, s) * (j - s) ** i
    return total


# ---------------------------------------------------------------------------
# good-subset counts mu(i, j, k)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mu_brute_table(i: int, j: int) -> tuple[int, ...]:
    """Tally, by cardinality, of the subsets of the i x j grid whose two
    projections are both surjective, counted exhaustively row by row.

    Entry k of the returned tuple is mu(i, j, k).  The grid is turned so
    that it has no more columns than rows.  Each row is a nonempty subset
    of the columns, and the count keeps the number of ways to reach each
    (columns covered, cells taken) pair; a subset is good when its rows
    cover every column.
    """
    if i < j:
        i, j = j, i  # transposition bijects good subsets, preserving size
    columns = (1 << j) - 1
    ways = Counter({(0, 0): 1})
    for _ in range(i):
        after = Counter()
        for (covered, size), n in ways.items():
            for row in range(1, columns + 1):
                after[covered | row, size + row.bit_count()] += n
        ways = after
    tally = [0] * (i * j + 1)
    for (covered, size), n in ways.items():
        if covered == columns:
            tally[size] += n
    return tuple(tally)


def mu_brute(i: int, j: int, k: int) -> int:
    """Count size-k subsets of the i x j grid projecting onto both
    factors, by counting every subset row by row.  Oracle method;
    requires i*j <= MU_BRUTE_CELL_BUDGET."""
    for name, value in (("i", i), ("j", j), ("k", k)):
        check_height(name, value, 1)
    check_budget("mu_brute", i * j, MU_BRUTE_CELL_BUDGET, "cells")
    table = _mu_brute_table(i, j)
    return table[k] if k < len(table) else 0


def mu_incl_excl(i: int, j: int, k: int) -> int:
    """Good-subset count via the double alternating sum of `mu_row`.

    Zero at once outside max(i,j) <= k <= i*j, where no good subset
    exists; within it, refused past i*j = MU_INCL_EXCL_CELL_BUDGET.
    """
    for name, value in (("i", i), ("j", j), ("k", k)):
        check_height(name, value, 1)
    if not max(i, j) <= k <= i * j:
        return 0
    check_budget("mu_incl_excl", i * j, MU_INCL_EXCL_CELL_BUDGET, "cells")
    return mu_row(i, j, k, k)[0]


def mu_row(i: int, j: int, lo: int, hi: int) -> list[int]:
    """mu(i, j, l) for lo <= l <= hi (lo >= 1), by the double alternating sum

        mu(i,j,l) = sum_{s,t >= 0} (-1)^(s+t) C(i,s) C(j,t) C((i-s)(j-t), l),

    taken once for the whole row: the signed products C(i,s) C(j,t) are
    first summed into one coefficient c_n per cell count
    n = (i-s)(j-t) >= lo, and then mu(i,j,l) = sum_n c_n C(n, l)."""
    coeffs = [0] * (i * j + 1)
    # (b, (-1)^t C(j, t)) for b = j - t >= 1 descending, while b * i >= lo
    columns = [(b, (-1) ** (j - b) * math.comb(j, b)) for b in range(j, 0, -1) if b * i >= lo]
    for a in range(i, 0, -1):  # a = i - s
        if a * j < lo:
            break
        ca = (-1) ** (i - a) * math.comb(i, a)
        for b, cb in columns:
            n = a * b
            if n < lo:
                break
            coeffs[n] += ca * cb
    terms = [(n, c) for n, c in enumerate(coeffs) if c]
    return [sum([c * math.comb(n, l) for n, c in terms if n >= l]) for l in range(lo, hi + 1)]


def mu_stirling(i: int, j: int, k: int) -> int:
    """Good-subset count via the Stirling-matrix inversion

        mu(i,j,k) = sum_m surj(m,i) surj(m,j) s(k,m) / k!

    with nonzero terms only for max(i,j) <= m <= k.  The division must be
    exact; a non-integral result signals an implementation bug.  Refused
    past k = MU_STIRLING_K_BUDGET.
    """
    for name, value in (("i", i), ("j", j), ("k", k)):
        check_height(name, value, 1)
    lo = max(i, j)
    if k < lo:
        return 0
    check_budget("mu_stirling", k, MU_STIRLING_K_BUDGET, "Stirling rows")
    row = _stirling1_row(k)
    numerator = 0
    for m in range(lo, k + 1):
        numerator += surjections(m, i) * surjections(m, j) * row[m]
    quotient, remainder = divmod(numerator, math.factorial(k))
    if remainder:
        raise RuntimeError(
            f"mu_stirling({i},{j},{k}): non-integral rational result"
        )
    return quotient


# ---------------------------------------------------------------------------
# p-power partitions and the blueshift distance
# ---------------------------------------------------------------------------


def digit_sum(k: int, p: int) -> int:
    """Sum of the base-p digits of k."""
    check_height("k", k, 1)
    check_prime("p", p)
    return _digit_sum(k, p)


@lru_cache(maxsize=None)
def _digit_sum(k: int, p: int) -> int:
    """`digit_sum` of checked arguments.  Cached, since delta_p reads it
    for every comparison of a spectrum build."""
    total = 0
    while k:
        k, digit = divmod(k, p)
        total += digit
    return total


def ppp_exists(p: int, k: int, l: int) -> bool:
    """Whether k can be written as a sum of exactly l powers of p
    (p**0 = 1 allowed): true iff p-1 divides k-l >= 0 and l >= s_p(k),
    that is, iff k >= l and delta_p(k, l) <= 1."""
    check_height("k", k, 1)
    check_height("l", l, 1)
    check_prime("p", p)
    return k >= l and delta_p(p, k, l) <= 1


def ppp_enumerate(p: int, k: int, l: int) -> list[tuple[int, ...]]:
    """All multisets of l powers of p summing to k, each as the tuple of
    its parts in descending order: the recursion over descending
    exponents builds them that way.  Oracle for :func:`ppp_exists`."""
    check_height("k", k, 1)
    check_height("l", l, 1)
    check_prime("p", p)
    check_budget("ppp_enumerate", k, PARTITION_BUDGET, "layers")

    powers = [1]
    while powers[-1] * p <= k:
        powers.append(powers[-1] * p)

    results: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int, slots: int, max_idx: int) -> None:
        if slots == 0:
            if remaining == 0:
                results.append(tuple(prefix))
            return
        for idx in range(max_idx, -1, -1):
            value = powers[idx]
            # all remaining slots are <= value and >= 1
            if value * slots < remaining or remaining < value + (slots - 1):
                continue
            prefix.append(value)
            extend(prefix, remaining - value, slots - 1, idx)
            prefix.pop()

    extend([], k, l, len(powers) - 1)
    return results


@lru_cache(maxsize=None)
def _has_ppp_brute(p: int, a: int, b: int) -> bool:
    return bool(ppp_enumerate(p, a, b))


def delta_p(p: int, k: int, l: int) -> NatInfinity:
    """Blueshift distance between layers k >= l: the length of the
    shortest chain of p-power partitions stepping k down to l.

    Closed form: 0 if k = l; 1 if p-1 | k-l > 0 and l >= s_p(k);
    2 if p-1 | k-l > 0 and l < s_p(k); infinity otherwise.
    The first test passes every valid call at once; the rules run, and
    raise, only when it fails.
    """
    if not (type(p) is type(k) is type(l) is int and 1 <= l <= k and is_prime(p)):
        check_height("l", l, 1)
        check_height("k", k, l)
        check_prime("p", p)
    if k == l:
        return 0
    if (k - l) % (p - 1):
        return INF
    return 1 if l >= _digit_sum(k, p) else 2


def layer_class(p: int, k: int) -> range:
    """The layers l <= k with p-1 | k-l, that is with delta_p(k, l)
    finite, ascending: the one walk of the layer congruence."""
    return range((k - 1) % (p - 1) + 1, k + 1, p - 1)


def delta_p_brute(p: int, k: int, l: int) -> NatInfinity:
    """Shortest-chain oracle for :func:`delta_p`: the number of steps of
    the chain :func:`shortest_ppp_chain` finds, or infinity when there
    is none."""
    chain = shortest_ppp_chain(p, k, l)
    return INF if chain is None else len(chain) - 1


def shortest_ppp_chain(p: int, k: int, l: int) -> list[int] | None:
    """One witnessing shortest chain k = c_0 > c_1 > ... > c_s = l of
    p-power-partition steps, or None if no chain exists: breadth-first
    search on the graph over {l, ..., k} with an edge a -> b whenever
    a > b and :func:`ppp_enumerate` finds a partition of a into b powers
    of p.  Oracle for :func:`delta_p` through :func:`delta_p_brute`."""
    check_height("l", l, 1)
    check_height("k", k, l)
    check_prime("p", p)
    check_budget("shortest_ppp_chain", k, PARTITION_BUDGET, "layers")
    if k == l:
        return [k]
    parent = {k: None}
    frontier = deque([k])
    while frontier:
        node = frontier.popleft()
        for nxt in range(l, node):
            if nxt in parent or not _has_ppp_brute(p, node, nxt):
                continue
            parent[nxt] = node
            if nxt == l:
                chain = [nxt]
                while parent[chain[-1]] is not None:
                    chain.append(parent[chain[-1]])
                return chain[::-1]
            frontier.append(nxt)
    return None
