"""Finite poset value object shared by the spectrum modules: point list,
full order relation, and Hasse cover edges obtained by transitive
reduction.  The relation is the source of truth; covers exist for
readable diagram output and are computed on first use.  `build_poset`
is the one way a spectrum becomes a Poset, and it owns the point
budget of the quadratic relation sweep."""

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
    """Immutable finite poset.  `relation` holds every ordered pair
    (a, b) with point a <= point b and a != b, as indices into `points`;
    `covers` is its transitive reduction."""

    points: tuple
    relation: frozenset = field(repr=False)

    @cached_property
    def _index(self) -> dict:
        return {pt: i for i, pt in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point) -> bool:
        return point in self._index

    def leq(self, a, b) -> bool:
        if a == b:
            return a in self._index
        return (self._index[a], self._index[b]) in self.relation

    @cached_property
    def covers(self) -> tuple:
        return transitive_reduction(len(self.points), self.relation)

    @cached_property
    def _below(self) -> list:
        below = [[i] for i in range(len(self.points))]
        for a, b in self.relation:
            below[b].append(a)
        return below

    def down_closure(self, seeds: Iterable) -> frozenset:
        """All points lying under at least one seed (seeds included)."""
        index, below, points = self._index, self._below, self.points
        return frozenset(points[i] for s in seeds for i in below[index[s]])

    def minimal(self) -> list:
        has_below = {b for _, b in self.relation}
        return [n for i, n in enumerate(self.points) if i not in has_below]

    def maximal(self) -> list:
        has_above = {a for a, _ in self.relation}
        return [n for i, n in enumerate(self.points) if i not in has_above]


def transitive_reduction(n: int, relation: frozenset) -> tuple:
    """Cover pairs of a strict order given as index pairs, ascending:
    (a, b) is a cover iff a < b with no c strictly between."""
    covers = []
    for a, b in sorted(relation):
        if any(
            (a, c) in relation and (c, b) in relation
            for c in range(n)
            if c != a and c != b
        ):
            continue
        covers.append((a, b))
    return tuple(covers)


def build_poset(nodes: Iterable, leq: Callable) -> Poset:
    """Assemble a Poset from ordered points and a reflexive order
    predicate, by one sweep over all ordered pairs.  At most
    POINT_BUDGET + 1 points are read, so an oversized window raises
    BudgetError before any pair is compared.  Point order is preserved,
    so deterministic input order yields deterministic serialization."""
    points = tuple(islice(nodes, POINT_BUDGET + 1))
    if len(points) > POINT_BUDGET:
        raise BudgetError(f"poset budget exceeded: more than {POINT_BUDGET} points")
    relation = frozenset(
        (i, j)
        for i, a in enumerate(points)
        for j, b in enumerate(points)
        if i != j and leq(a, b)
    )
    return Poset(points=points, relation=relation)
