"""Finite poset value object shared by the spectrum modules: point list,
order, and Hasse cover edges.  The order is stored in one form, the
strict up-set of each point as a Python-int bitset (bit b of `above[a]`
is set iff a < b).  `leq`, covers, down-sets, minimal and maximal points
read it, and the index-pair `relation` is derived from it.  Covers and
the relation are computed on first use.  `POINT_BUDGET` bounds every
spectrum: `build_poset`, the pairwise sweep behind the Zariski and HZ
spectra, and `balmer.b_truncation`, which bisects its columns instead,
both refuse an oversized window through `check_point_budget`."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable

from .combinat import check_budget

__all__ = [
    "POINT_BUDGET",
    "Poset",
    "build_poset",
    "check_point_budget",
    "transitive_reduction",
]

POINT_BUDGET = 1200  # most points a poset materializes (quadratic bitsets)


def check_point_budget(n_points: int) -> None:
    """Raise BudgetError when n_points exceeds POINT_BUDGET, read at call
    time."""
    check_budget("poset", n_points, POINT_BUDGET, "points")


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
    transitivity and is skipped, so the result is exact in any visiting
    order.  Taking the highest remaining bit first visits the points
    nearest a first when, as in every spectrum here, points are listed
    from the top of the order down; their up-sets then clear the rest,
    so the loop runs about once per cover, an OR of n-bit integers
    (about n/64 machine words) each, and at most once per relation
    pair."""
    covers = []
    for a, up in enumerate(above):
        through, rest = 0, up
        while rest:
            c = rest.bit_length() - 1
            through |= above[c]
            rest &= ~(through | 1 << c)
        covers.extend((a, b) for b in _bits(up & ~through))
    return tuple(covers)


def build_poset(points: Iterable, leq: Callable) -> Poset:
    """Assemble a Poset from points and a reflexive order predicate by
    the plain sweep: leq decides every ordered pair of distinct points.
    The point order is the input order, so deterministic input yields
    deterministic serialization.  At most POINT_BUDGET + 1 points are
    read, so an oversized window raises BudgetError before any pair is
    compared."""
    points = tuple(islice(points, POINT_BUDGET + 1))
    check_point_budget(len(points))
    above = []
    for i, a in enumerate(points):
        up = 0
        for j, b in enumerate(points):
            if j != i and leq(a, b):
                up |= 1 << j
        above.append(up)
    return Poset(points=points, above=tuple(above))
