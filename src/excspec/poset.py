"""Finite poset value object shared by the spectrum modules: point list,
order, and Hasse cover edges.  The order is stored in one form, the
strict up-set of each point as a Python-int bitset (bit b of `above[a]`
is set iff a < b).  `leq`, covers, down-sets, minimal and maximal points
read it, and the index-pair `relation` is derived from it.  Covers and
the relation are computed on first use.  `build_poset` is the one way a
spectrum becomes a Poset: it sweeps the order chain by chain, and it
owns the point budget of that quadratic sweep."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable

from .combinat import BudgetError

__all__ = ["POINT_BUDGET", "Poset", "build_poset", "transitive_reduction"]

POINT_BUDGET = 1200  # most points a poset materializes (quadratic sweep)


@dataclass(frozen=True)
class Poset:
    """Immutable finite poset over `points`.  Bit b of `above[a]` is set
    iff point a < point b (indices into `points`); `relation` lists those
    pairs and `covers` is its transitive reduction."""

    points: tuple
    above: tuple[int, ...] = field(repr=False)

    @cached_property
    def _index(self) -> dict:
        return {pt: i for i, pt in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point) -> bool:
        return point in self._index

    def leq(self, a, b) -> bool:
        """a <= b in the poset; False when either point is outside it."""
        i, j = self._index.get(a), self._index.get(b)
        if i is None or j is None:
            return False
        return i == j or bool(self.above[i] >> j & 1)

    @cached_property
    def relation(self) -> tuple:
        """Every index pair (a, b) with point a < point b, ascending."""
        return tuple((a, b) for a, up in enumerate(self.above) for b in _bits(up))

    @cached_property
    def covers(self) -> tuple:
        return transitive_reduction(self.above)

    def down_closure(self, seeds: Iterable) -> frozenset:
        """All points lying under at least one seed (seeds included).
        Raises ValueError for a seed outside the poset."""
        index, mask = self._index, 0
        for s in seeds:
            if s not in index:
                raise ValueError(f"point {s} not in poset")
            mask |= 1 << index[s]
        return frozenset(
            pt
            for i, (pt, up) in enumerate(zip(self.points, self.above))
            if (up | 1 << i) & mask
        )

    def minimal(self) -> list:
        has_below = 0
        for up in self.above:
            has_below |= up
        return [pt for i, pt in enumerate(self.points) if not has_below >> i & 1]

    def maximal(self) -> list:
        return [pt for pt, up in zip(self.points, self.above) if not up]


def _bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def transitive_reduction(above: tuple[int, ...]) -> tuple:
    """Cover pairs of a strict order given as strict up-set bitsets,
    ascending: (a, b) is a cover iff a < b with no c strictly between.
    The covers of a are `above[a]` minus the union of `above[c]` over
    every c in `above[a]`; a c already in that union adds nothing by
    transitivity and is skipped.  The unions cost at most one OR of n-bit
    integers per relation pair: O(|R|) operations of about n/64 machine
    words each, against O(|R|·n) steps for testing every point as a
    middle point of every pair."""
    covers = []
    for a, up in enumerate(above):
        through, rest = 0, up
        while rest:
            low = rest & -rest
            through |= above[low.bit_length() - 1]
            rest &= ~(through | low)
        covers.extend((a, b) for b in _bits(up & ~through))
    return tuple(covers)


def build_poset(chains: Iterable[Iterable], leq: Callable) -> Poset:
    """Assemble a Poset from points given as chains and a reflexive order
    predicate.  Each chain lists its points from the top down, so each
    point is <= the one before it; the point order is the chains
    concatenated, so deterministic input yields deterministic
    serialization.  Row a walks down each chain and stops at the first b
    with not leq(a, b): by transitivity the up-set of a meets a chain in a
    top segment, so the pruning is exact for any poset, and every bit
    set is one that leq decided.  One-point chains give the plain sweep
    over all ordered pairs.  At most POINT_BUDGET + 1 points are read, so
    an oversized window raises BudgetError before any pair is compared."""
    runs, points = [], []
    for run in chains:
        run = tuple(islice(run, POINT_BUDGET + 1 - len(points)))
        if run:
            runs.append((len(points), run[0], run[1:]))
            points.extend(run)
        if len(points) > POINT_BUDGET:
            raise BudgetError(f"poset budget exceeded: more than {POINT_BUDGET} points")
    above = []
    for i, a in enumerate(points):
        up = 0
        for start, head, rest in runs:
            if start != i and not leq(a, head):
                continue  # the common case: one call, no bit
            j = start + 1
            for b in rest:
                if j != i and not leq(a, b):
                    break
                j += 1
            up |= (1 << j) - (1 << start)
        above.append(up & ~(1 << i))
    return Poset(points=tuple(points), above=tuple(above))
