"""Spectrum of the degree-d window with integral homology coefficients.

Points are pairs (layer, residue char) in bijection with [d] x Spec(Z);
there is no gluing here.  A point of positive residue char p is
contained in a point of char p or 0 at a lower layer whenever p-1
divides the layer gap; char-0 points only contain themselves.  The
space is noetherian, so every specialization-closed subset is Thomason
and no quasi-compactness bookkeeping is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .balmer import BalmerPrime
from .combinat import INF, check_layer, check_window, delta_p, is_prime
from .poset import Poset, build_poset

__all__ = [
    "HZPrime",
    "hz_prime",
    "hz_leq",
    "hz_base_change",
    "hz_admissible_subset",
    "hz_points",
    "hz_poset",
]


@dataclass(frozen=True, order=True)
class HZPrime:
    """A point (layer, residue): residue 0 for the generic fibre, a
    prime p for the mod-p fibre."""

    layer: int
    residue: int


def hz_prime(d: int, layer: int, residue: int) -> HZPrime:
    check_layer(d, layer)
    if residue != 0 and not is_prime(residue):
        raise ValueError(f"residue must be 0 or prime, got {residue}")
    return HZPrime(layer, residue)


def hz_leq(a: HZPrime, b: HZPrime) -> bool:
    """Containment a <= b: either a has residue p, b has residue p or 0,
    and p-1 | layer(a) - layer(b) >= 0; or both are generic points on
    the same layer."""
    if a.residue == 0:
        return b.residue == 0 and a.layer == b.layer
    if b.residue not in (0, a.residue):
        return False
    return a.layer >= b.layer and delta_p(a.residue, a.layer, b.layer) != INF


def hz_base_change(a: HZPrime) -> BalmerPrime:
    """Image under base change into the sphere-coefficient spectrum:
    mod-p fibres land at height infinity, the generic fibre at the
    rational height-1 point."""
    if a.residue == 0:
        return BalmerPrime(a.layer, 0, 1)
    return BalmerPrime(a.layer, a.residue, INF)


def _hz_stream(d: int, residues: tuple[int, ...]) -> Iterable[HZPrime]:
    """The points over the given residues in (layer, residue) order."""
    return (HZPrime(layer, r) for layer in range(1, d + 1) for r in residues)


def hz_points(d: int, primes: Iterable[int]) -> list[HZPrime]:
    """All points over the given residue characteristics plus 0, in the
    deterministic (layer, residue) order."""
    return list(_hz_stream(d, (0,) + check_window(d, primes)))


def hz_poset(d: int, primes: Iterable[int], residue: int | None = None) -> Poset:
    """The spectrum over the given residue characteristics plus 0 as a
    poset, or, given a residue (0 or one of the primes; the CLI's
    `--slice`), only that residue's slice."""
    residues = (0,) + check_window(d, primes)
    if residue is not None:
        if residue not in residues:
            raise ValueError(f"--slice must be 0 or one of the primes, got {residue}")
        residues = (residue,)
    return build_poset(_hz_stream(d, residues), hz_leq)


def hz_admissible_subset(
    Y: Iterable[tuple[int, int]], d: int, primes: Iterable[int]
) -> bool:
    """Closure test characterizing the Thomason subsets: whether the
    (layer, residue) pairs Y are specialization-closed in
    :func:`hz_poset` over the given primes plus 0, that is, whether
    their down-closure adds nothing.  A pair outside the poset raises
    ValueError, and a window over the poset's POINT_BUDGET raises
    BudgetError."""
    members = frozenset(HZPrime(k, r) for k, r in Y)
    poset = _window_poset(d, check_window(d, primes))
    return poset.down_closure(members) == members


@lru_cache(maxsize=8)
def _window_poset(d: int, prime_tuple: tuple[int, ...]) -> Poset:
    """hz_poset of one window, built once for repeated subset tests."""
    return hz_poset(d, prime_tuple)
