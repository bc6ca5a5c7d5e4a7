"""Exact counting primitives and p-power partition machinery.

Everything here is arbitrary-precision integer arithmetic: surjection
counts grow like i! and overflow 64-bit machine words near i = 21, so no
fixed-width shortcut is taken anywhere.  Brute-force routines carry hard
enumeration budgets and raise :class:`BudgetError` instead of silently
truncating; they serve as oracles for the closed-form routines and must
never lie.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

__all__ = [
    "INF",
    "NatInfinity",
    "BudgetError",
    "Partition",
    "binomial",
    "stirling2",
    "stirling1",
    "surjections",
    "mu_brute",
    "mu_incl_excl",
    "mu_stirling",
    "digit_sum",
    "ppp_exists",
    "ppp_enumerate",
    "delta_p",
    "delta_p_brute",
    "shortest_ppp_chain",
    "is_prime",
    "check_window",
]

MU_BRUTE_CELL_BUDGET = 20  # enumerate all 2**(i*j) subsets only up to here
PARTITION_BUDGET = 64  # largest k for which p-power partitions are enumerated


class BudgetError(Exception):
    """An enumeration exceeded its hard budget; the caller must use a
    formula-based method instead."""


class _Infinity:
    """The top element of the naturals-with-infinity order.

    A distinct symbol rather than a sentinel integer: comparisons and
    addition against ordinary ints behave like the order on N with a
    greatest element (n < inf for all finite n, inf + n = inf, and
    inf is not strictly below itself).
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return hash("excspec-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()

NatInfinity = Union[int, _Infinity]


def is_prime(p: int) -> bool:
    """Trial-division primality check, adequate for the small primes used
    as residue characteristics."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def check_window(d: int, primes: Iterable[int]) -> tuple[int, ...]:
    """Validated scope of a degree-d window: d >= 1 and a non-empty set
    of genuine primes, returned sorted and without repeats.  Every
    constructor of a window-shaped object checks its input here."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d = {d}")
    prime_tuple = tuple(sorted(set(primes)))
    if not prime_tuple:
        raise ValueError("prime set must be non-empty")
    for p in prime_tuple:
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
    return prime_tuple


# ---------------------------------------------------------------------------
# basic counts
# ---------------------------------------------------------------------------


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


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
    n-set into k nonempty blocks.  Row n is built iteratively by
    S(m, k) = k S(m-1, k) + S(m-1, k-1) and cached."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling2_row(n)[k]


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k).  Row n is built
    iteratively by s(m, k) = s(m-1, k-1) - (m-1) s(m-1, k) and cached,
    so a caller reading all of row n pays O(n**2) once."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling1_row(n)[k]


@lru_cache(maxsize=None)
def surjections(i: int, j: int) -> int:
    """Number of surjections from an i-set onto a j-set.

    Inclusion-exclusion: j^i + sum_{s=1}^{j-1} (-1)^s C(j,s) (j-s)^i.
    Returns 0 when j > i (no error: the vanishing is meaningful).
    """
    if i < 1 or j < 1:
        raise ValueError("surjections requires i, j >= 1")
    total = j**i
    for s in range(1, j):
        total += (-1) ** s * math.comb(j, s) * (j - s) ** i
    return total


# ---------------------------------------------------------------------------
# good-subset counts mu(i, j, k)
# ---------------------------------------------------------------------------

_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


@lru_cache(maxsize=None)
def _mu_brute_table(i: int, j: int) -> tuple[int, ...]:
    """Tally, by cardinality, of the subsets of the i x j grid whose two
    projections are both surjective, by sweeping all 2**(i*j) bitmasks.

    Entry k of the returned tuple is mu(i, j, k).  Vectorized with numpy
    for speed; all quantities fit in 64-bit counters since i*j <= 20.
    """
    cells = i * j
    v = np.arange(1 << cells, dtype=np.uint32)
    good = np.ones(v.shape, dtype=bool)
    for r in range(i):
        row_mask = np.uint32(sum(1 << (r * j + c) for c in range(j)))
        good &= (v & row_mask) != 0
    for c in range(j):
        col_mask = np.uint32(sum(1 << (r * j + c) for r in range(i)))
        good &= (v & col_mask) != 0
    v = v[good]
    sizes = (
        _POPCOUNT8[v & 0xFF]
        + _POPCOUNT8[(v >> np.uint32(8)) & 0xFF]
        + _POPCOUNT8[(v >> np.uint32(16)) & 0xFF]
    )
    tally = np.bincount(sizes, minlength=cells + 1)
    return tuple(int(t) for t in tally)


def mu_brute(i: int, j: int, k: int) -> int:
    """Count size-k subsets of the i x j grid projecting onto both
    factors, by exhaustive enumeration.  Oracle method; requires
    i*j <= 20."""
    if i < 1 or j < 1 or k < 1:
        raise ValueError("mu_brute requires i, j, k >= 1")
    if i * j > MU_BRUTE_CELL_BUDGET:
        raise BudgetError(
            f"mu_brute budget exceeded: i*j = {i * j} > {MU_BRUTE_CELL_BUDGET}"
        )
    if i > j:
        i, j = j, i  # transposition bijects good subsets, preserving size
    table = _mu_brute_table(i, j)
    return table[k] if k < len(table) else 0


def mu_incl_excl(i: int, j: int, k: int) -> int:
    """Good-subset count via the double alternating sum

        mu(i,j,k) = sum_{s,t >= 0} (-1)^(s+t) C((i-s)(j-t), k) C(i,s) C(j,t).
    """
    if i < 1 or j < 1 or k < 1:
        raise ValueError("mu_incl_excl requires i, j, k >= 1")
    total = 0
    for s in range(i + 1):
        ci = math.comb(i, s)
        for t in range(j + 1):
            term = binomial((i - s) * (j - t), k)
            if term:
                total += (-1) ** (s + t) * ci * math.comb(j, t) * term
    return total


def mu_stirling(i: int, j: int, k: int) -> int:
    """Good-subset count via the Stirling-matrix inversion

        mu(i,j,k) = sum_m surj(m,i) surj(m,j) s(k,m) / k!

    with nonzero terms only for max(i,j) <= m <= k.  The division must be
    exact; a non-integral result signals an implementation bug.
    """
    if i < 1 or j < 1 or k < 1:
        raise ValueError("mu_stirling requires i, j, k >= 1")
    lo = max(i, j)
    if k < lo:
        return 0
    numerator = 0
    for m in range(lo, k + 1):
        numerator += surjections(m, i) * surjections(m, j) * stirling1(k, m)
    quotient, remainder = divmod(numerator, math.factorial(k))
    if remainder:
        raise RuntimeError(
            f"mu_stirling({i},{j},{k}): non-integral rational result"
        )
    return quotient


# ---------------------------------------------------------------------------
# p-power partitions and the blueshift distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A multiset of positive integers, stored as a descending tuple."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(part < 1 for part in self.parts):
            raise ValueError("partition parts must be positive")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def digit_sum(k: int, p: int) -> int:
    """Sum of the base-p digits of k."""
    if k < 1:
        raise ValueError("digit_sum requires k >= 1")
    _require_prime(p)
    total = 0
    while k:
        k, digit = divmod(k, p)
        total += digit
    return total


def ppp_exists(p: int, k: int, l: int) -> bool:
    """Whether k can be written as a sum of exactly l powers of p
    (p**0 = 1 allowed): true iff p-1 divides k-l >= 0 and l >= s_p(k)."""
    if k < 1 or l < 1:
        raise ValueError("ppp_exists requires k, l >= 1")
    _require_prime(p)
    return k - l >= 0 and (k - l) % (p - 1) == 0 and l >= digit_sum(k, p)


def ppp_enumerate(p: int, k: int, l: int) -> list[Partition]:
    """All multisets of l powers of p summing to k, by bounded recursion
    over descending exponents.  Oracle for :func:`ppp_exists`."""
    if k < 1 or l < 1:
        raise ValueError("ppp_enumerate requires k, l >= 1")
    _require_prime(p)
    if k > PARTITION_BUDGET:
        raise BudgetError(
            f"ppp_enumerate budget exceeded: k = {k} > {PARTITION_BUDGET}"
        )

    powers = [1]
    while powers[-1] * p <= k:
        powers.append(powers[-1] * p)

    results: list[Partition] = []

    def extend(prefix: list[int], remaining: int, slots: int, max_idx: int) -> None:
        if slots == 0:
            if remaining == 0:
                results.append(Partition(tuple(prefix)))
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
    """
    if l < 1:
        raise ValueError("delta_p requires l >= 1")
    if k < l:
        raise ValueError(f"delta_p requires k >= l, got k={k} < l={l}")
    _require_prime(p)
    if k == l:
        return 0
    if (k - l) % (p - 1) != 0:
        return INF
    return 1 if l >= digit_sum(k, p) else 2


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
    if k < l or l < 1:
        raise ValueError("shortest_ppp_chain requires k >= l >= 1")
    _require_prime(p)
    if k > PARTITION_BUDGET:
        raise BudgetError(
            f"shortest_ppp_chain budget exceeded: k = {k} > {PARTITION_BUDGET}"
        )
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
