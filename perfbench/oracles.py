"""Reference values computed without the code under test.

Each function here re-derives a quantity from its definition, along a
different route than the one the `excspec` command takes, so that the
benchmark's references do not trust the program they check.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache

INF = "inf"


@lru_cache(maxsize=None)
def _part_counts(p: int, total: int) -> frozenset:
    """Every length of a multiset of powers of p (1 included) that sums
    to `total`, by dynamic programming over the largest part."""
    if total == 0:
        return frozenset({0})
    lengths = set()
    power = 1
    while power <= total:
        lengths.update(c + 1 for c in _part_counts(p, total - power))
        power *= p
    return frozenset(lengths)


def delta(p: int, k: int, l: int):
    """Blueshift distance: the fewest steps a -> b (a > b) taking k down
    to l, where a step needs a multiset of b powers of p summing to a.
    Breadth-first search; returns INF when l is unreachable."""
    if k == l:
        return 0
    dist = {k: 0}
    frontier = deque([k])
    while frontier:
        a = frontier.popleft()
        for b in range(l, a):
            if b not in dist and b in _part_counts(p, a):
                dist[b] = dist[a] + 1
                if b == l:
                    return dist[b]
                frontier.append(b)
    return INF


def _surjections(m: int, n: int) -> int:
    return sum((-1) ** s * math.comb(n, s) * (n - s) ** m for s in range(n + 1))


def mu_values(triples) -> dict:
    """Good-subset counts mu(i, j, k) by the Stirling-matrix route,
    sum_m surj(m, i) surj(m, j) s(k, m) / k!, with the signed Stirling
    numbers of the first kind built row by row (no recursion).  One pass
    over rows 0..max k serves every requested triple."""
    wanted: dict[int, list] = {}
    for triple in triples:
        wanted.setdefault(triple[2], []).append(triple)
    out = {}
    row = [1]  # s(0, m) for m = 0
    for n in range(max(wanted, default=0) + 1):
        if n:
            prev = row + [0]
            row = [0] * (n + 1)
            for m in range(1, n + 1):
                row[m] = prev[m - 1] - (n - 1) * prev[m]
        for i, j, k in wanted.get(n, ()):
            total = sum(
                _surjections(m, i) * _surjections(m, j) * row[m]
                for m in range(max(i, j), k + 1)
            )
            value, rest = divmod(total, math.factorial(k))
            if rest:
                raise ArithmeticError(f"mu({i},{j},{k}) is not integral")
            out[(i, j, k)] = value
    return out


def factorial_invariants(d: int) -> list[int]:
    """Invariant factors of Z/1! x Z/2! x ... x Z/d!: each factorial
    divides the next, so the chain 1!, 2!, ..., d! is already the
    invariant-factor form."""
    return [math.factorial(i) for i in range(1, d + 1)]


def is_p_admissible(values, p: int) -> bool:
    """f(k) <= delta_p(k, l) + f(l) for every l < k with p-1 | k-l;
    INF is the top of the order and absorbs addition."""
    for k in range(2, len(values) + 1):
        for l in range(1, k):
            if (k - l) % (p - 1):
                continue
            bound = delta(p, k, l)
            if values[k - 1] == INF:
                if bound != INF and values[l - 1] != INF:
                    return False
            elif bound != INF and values[l - 1] != INF:
                if values[k - 1] > bound + values[l - 1]:
                    return False
    return True
