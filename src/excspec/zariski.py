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
from .combinat import check_char, check_height, check_layer, check_window, layer_class
from .poset import Poset, build_poset

__all__ = [
    "ZariskiPrime",
    "zariski_prime",
    "canonical_layer",
    "z_leq",
    "z_membership",
    "z_poset",
]


@dataclass(frozen=True, order=True)
class ZariskiPrime:
    """A prime ideal: kernel-of-reduction at `layer` and characteristic
    `char` (0 for the minimal primes).  Canonical by construction: the
    layer, an int >= 1 (`check_height`), is replaced by the minimal
    one of its gluing class."""

    layer: int
    char: int

    def __post_init__(self):
        check_height("layer", self.layer, 1)
        object.__setattr__(self, "layer", canonical_layer(self.layer, self.char))

    def label(self) -> str:
        """`z(layer|char)`, at the canonical layer."""
        return f"z({self.layer}|{self.char})"

    def json_fields(self) -> dict:
        return {"layer": self.layer, "char": self.char}


def canonical_layer(layer: int, char: int) -> int:
    """Minimal layer in the gluing class, the first of `layer_class`;
    the layer itself when char < 2, where nothing glues."""
    return layer if char < 2 else layer_class(char, layer)[0]


def zariski_prime(d: int, layer: int, char: int) -> ZariskiPrime:
    """Validated point of the rank-d spectrum."""
    check_layer(d, layer)
    check_char("char", char)
    return ZariskiPrime(layer, char)


def z_leq(a: ZariskiPrime, b: ZariskiPrime) -> bool:
    """Ideal containment a <= b.  The order has height one: a minimal
    char-0 point lies under a closed char-p point exactly when their
    layers glue at p."""
    return a == b or (
        a.char == 0 < b.char and canonical_layer(a.layer, b.char) == b.layer
    )


def z_membership(
    pres: BurnsidePresentation, a: RingElement, q: ZariskiPrime
) -> bool:
    """Whether element a lies in the prime q: the ghost component at the
    stored layer vanishes identically (char 0) or mod p (char p).  A
    point whose canonical layer fails `check_layer` for d raises
    ValueError; a glued spelling past d answers as its canonical point."""
    ghost = pres.ghost(a)  # refuses a non-element and a dimension mismatch
    check_layer(pres.d, q.layer)
    value = ghost[q.layer - 1]
    return value == 0 if q.char == 0 else value % q.char == 0


def z_poset(d: int, primes: list[int]) -> Poset:
    """The spectrum restricted to char 0 and the given characteristics,
    as a poset of canonical points: minimal char-0 points at the bottom,
    one glued maximal point per residue class per prime."""
    prime_tuple = check_window(d, primes)
    points = (
        ZariskiPrime(layer, char)
        for layer in range(1, d + 1)
        for char in (0,) + prime_tuple
        if canonical_layer(layer, char) == layer
    )
    return build_poset(points, z_leq)
