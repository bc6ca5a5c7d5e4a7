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
from typing import Iterable

from .balmer import BalmerPrime
from .combinat import INF, check_window, is_prime

__all__ = [
    "HZPrime",
    "hz_prime",
    "hz_leq",
    "hz_base_change",
    "hz_admissible_subset",
    "hz_points",
]


@dataclass(frozen=True, order=True)
class HZPrime:
    """A point (layer, residue): residue 0 for the generic fibre, a
    prime p for the mod-p fibre."""

    layer: int
    residue: int


def hz_prime(d: int, layer: int, residue: int) -> HZPrime:
    if not 1 <= layer <= d:
        raise ValueError(f"layer {layer} out of range 1..{d}")
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
    gap = a.layer - b.layer
    return gap >= 0 and gap % (a.residue - 1) == 0


def hz_base_change(a: HZPrime) -> BalmerPrime:
    """Image under base change into the sphere-coefficient spectrum:
    mod-p fibres land at height infinity, the generic fibre at the
    rational height-1 point."""
    if a.residue == 0:
        return BalmerPrime(a.layer, 0, 1)
    return BalmerPrime(a.layer, a.residue, INF)


def hz_points(d: int, primes: Iterable[int]) -> list[HZPrime]:
    """All points over the given residue characteristics plus 0, in the
    deterministic (layer, residue) order."""
    prime_tuple = check_window(d, primes)
    return [
        hz_prime(d, layer, residue)
        for layer in range(1, d + 1)
        for residue in (0,) + prime_tuple
    ]


def hz_admissible_subset(
    Y: Iterable[tuple[int, int]], d: int, primes: Iterable[int]
) -> bool:
    """Closure test characterizing the Thomason subsets: membership of
    (l, 0) forces membership of (k, p) for every prime p in scope with
    p-1 | k-l >= 0, and membership of (l, p) forces the same for its own
    prime.  Equivalent to specialization-closure in the containment
    order."""
    prime_tuple = check_window(d, primes)
    members = {(k, r) for (k, r) in Y}
    for k, r in members:
        if not 1 <= k <= d or (r != 0 and r not in prime_tuple):
            raise ValueError(f"point ({k},{r}) outside [d] x prime scope")
    for l, r in members:
        scope = prime_tuple if r == 0 else (r,)
        for p in scope:
            for k in range(l, d + 1):
                if (k - l) % (p - 1) == 0 and (k, p) not in members:
                    return False
    return True
