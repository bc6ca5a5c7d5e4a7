"""Prime-ideal spectrum of the rank-d Burnside ring as a finite poset.

Points are pairs (layer, char).  At a positive characteristic p the
layer-i and layer-j points coincide exactly when p-1 divides j-i, so a
canonical representative (the minimal layer in the class) is stored and
point equality becomes structural equality.  Only the finitely many
characteristics requested by a query are ever materialized: for p > d
no gluing occurs, so the picture is uniform in all larger primes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .burnside import BurnsidePresentation, RingElement
from .combinat import check_window, is_prime
from .poset import Poset, build_poset

__all__ = [
    "ZariskiPrime",
    "zariski_prime",
    "canonical_layer",
    "z_equal",
    "z_leq",
    "z_membership",
    "z_poset",
]


@dataclass(frozen=True, order=True)
class ZariskiPrime:
    """A prime ideal: kernel-of-reduction at `layer` and characteristic
    `char` (0 for the minimal primes).  Stored canonically."""

    layer: int
    char: int


def canonical_layer(layer: int, char: int) -> int:
    """Minimal layer in the gluing class {j >= 1 : char-1 | j - layer}."""
    if char == 0:
        return layer
    return (layer - 1) % (char - 1) + 1


def zariski_prime(d: int, layer: int, char: int) -> ZariskiPrime:
    """Validated canonical point of the rank-d spectrum."""
    if not 1 <= layer <= d:
        raise ValueError(f"layer {layer} out of range 1..{d}")
    if char != 0 and not is_prime(char):
        raise ValueError(f"char must be 0 or prime, got {char}")
    return ZariskiPrime(canonical_layer(layer, char), char)


def z_equal(a: ZariskiPrime, b: ZariskiPrime) -> bool:
    """Point equality: equal characteristics, with layers literally equal
    at char 0 and equal modulo char-1 at positive char."""
    if a.char != b.char:
        return False
    if a.char == 0:
        return a.layer == b.layer
    return (a.layer - b.layer) % (a.char - 1) == 0


def z_leq(a: ZariskiPrime, b: ZariskiPrime) -> bool:
    """Ideal containment a <= b.  The order has height one: a minimal
    char-0 point lies under a closed char-p point exactly when their
    layers glue at p."""
    if z_equal(a, b):
        return True
    if a.char == 0 and b.char > 0:
        return z_equal(
            ZariskiPrime(canonical_layer(a.layer, b.char), b.char), b
        )
    return False


def z_membership(
    pres: BurnsidePresentation, a: RingElement, q: ZariskiPrime
) -> bool:
    """Whether element a lies in the prime q: the ghost component at the
    stored layer vanishes identically (char 0) or mod p (char p)."""
    if a.dim != pres.d:
        raise ValueError("element dimension does not match presentation")
    if not 1 <= q.layer <= pres.d:
        raise ValueError("prime layer out of range for presentation")
    value = pres.ghost(a)[q.layer - 1]
    return value == 0 if q.char == 0 else value % q.char == 0


def z_poset(d: int, primes: list[int]) -> Poset:
    """The spectrum restricted to char 0 and the given characteristics,
    as a poset of canonical points: minimal char-0 points at the bottom,
    one glued maximal point per residue class per prime."""
    prime_tuple = check_window(d, primes)
    points = [zariski_prime(d, i, 0) for i in range(1, d + 1)]
    seen = set(points)
    for i in range(1, d + 1):
        for p in prime_tuple:
            point = zariski_prime(d, i, p)
            if point not in seen:
                seen.add(point)
                points.append(point)
    points.sort(key=lambda q: (q.layer, q.char))
    return build_poset(points, z_leq)
