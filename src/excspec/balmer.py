"""The spectrum of prime thick tensor-ideals over the degree-d window,
modelled as a finite poset of points (layer, char, height).

Height 1 is the rational point and is independent of the characteristic,
so canonical points store char 0 there; at heights above 1 the char is a
genuine prime.  Containment between points is decided by three numeric
conditions: divisibility of the layer gap by p-1, a height gap of at
least the blueshift distance delta_p, and char agreement above height 1.
The first two are one test, since delta_p is infinite exactly when p-1
does not divide the gap.

Truncations materialize the finitely many points with height at most
Hmax (plus, optionally, the height-infinity points, which Thomason
bookkeeping must treat specially) together with the full containment
relation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import INF, NatInfinity, check_window, delta_p, is_prime, ppp_exists
from .poset import Poset, order_relation
from .zariski import ZariskiPrime, canonical_layer

__all__ = [
    "BalmerPrime",
    "balmer_prime",
    "SpectrumTruncation",
    "b_equal",
    "b_leq",
    "b_truncation",
    "rho",
    "tate_blueshift",
    "geometric_blueshift",
    "generator_support",
    "open_embedding_check",
    "smith_holds",
    "height_sort_key",
]


@dataclass(frozen=True)
class BalmerPrime:
    """A prime thick tensor-ideal: layer k, characteristic p, chromatic
    height h >= 1 (possibly infinity).  Canonical form: char 0 at
    height 1, a prime char above."""

    layer: int
    char: int
    height: NatInfinity


def height_sort_key(h: NatInfinity) -> tuple[int, int]:
    return (1, 0) if h is INF else (0, h)


def balmer_prime(d: int, layer: int, char: int, height: NatInfinity) -> BalmerPrime:
    """Validated canonical point for the degree-d window."""
    if not 1 <= layer <= d:
        raise ValueError(f"layer {layer} out of range 1..{d}")
    if height is not INF and height < 1:
        raise ValueError("height must be >= 1")
    if height == 1:
        return BalmerPrime(layer, 0, 1)
    if not is_prime(char):
        raise ValueError(f"char must be prime at height > 1, got {char}")
    return BalmerPrime(layer, char, height)


def b_equal(a: BalmerPrime, b: BalmerPrime) -> bool:
    """Point equality: layers and heights equal, chars equal above
    height 1 (all chars give the same rational point at height 1)."""
    if a.layer != b.layer or a.height != b.height:
        return False
    return a.height == 1 or a.char == b.char


def b_leq(a: BalmerPrime, b: BalmerPrime) -> bool:
    """Ideal containment a <= b.

    Writing a = (k, p, h') and b = (l, q, h): true iff p-1 | k-l >= 0,
    h' >= h + delta_p(k, l), and p = q whenever h > 1.  A height-1
    source lies under no other point: 1 >= h + delta_p(k, l) forces
    h = 1 and k = l, which is equality.
    """
    if b_equal(a, b):
        return True
    if a.layer < b.layer or a.height == 1:
        return False
    delta = delta_p(a.char, a.layer, b.layer)
    return (
        delta is not INF
        and a.height >= b.height + delta
        and (b.height == 1 or a.char == b.char)
    )


@dataclass(frozen=True)
class SpectrumTruncation(Poset):
    """All canonical points of the degree-d spectrum with height in
    {1..hmax} (plus infinity when flagged) over a finite prime set,
    together with the precomputed containment relation."""

    d: int
    primes: tuple[int, ...]
    hmax: int
    include_infinity: bool


def _truncation_points(
    d: int, primes: tuple[int, ...], hmax: int, include_infinity: bool
) -> list[BalmerPrime]:
    points = []
    for layer in range(1, d + 1):
        points.append(BalmerPrime(layer, 0, 1))
        for p in primes:
            for h in range(2, hmax + 1):
                points.append(BalmerPrime(layer, p, h))
            if include_infinity:
                points.append(BalmerPrime(layer, p, INF))
    points.sort(key=lambda q: (q.layer, q.char, height_sort_key(q.height)))
    return points


def b_truncation(
    d: int,
    primes: list[int] | tuple[int, ...],
    hmax: int,
    include_infinity: bool = True,
) -> SpectrumTruncation:
    """Materialize the finite truncated spectrum and its full order."""
    if hmax < 1:
        raise ValueError("hmax must be >= 1")
    prime_tuple = check_window(d, primes)
    points = tuple(_truncation_points(d, prime_tuple, hmax, include_infinity))
    return SpectrumTruncation(
        points=points,
        relation=order_relation(points, b_leq),
        d=d,
        primes=prime_tuple,
        hmax=hmax,
        include_infinity=include_infinity,
    )


def rho(a: BalmerPrime) -> ZariskiPrime:
    """Comparison map to the prime-ideal spectrum of the Burnside ring:
    height 1 lands on the char-0 layer point, higher heights on the
    canonical glued char-p point."""
    if a.height == 1:
        return ZariskiPrime(a.layer, 0)
    return ZariskiPrime(canonical_layer(a.layer, a.char), a.char)


def tate_blueshift(p: int, k: int, l: int, h: int) -> NatInfinity:
    """Height drop of the layer-l derivative of the layer-k Tate
    construction applied at input height h: a shift of exactly 1 when a
    p-power partition of k of length l exists with k > l, and total
    collapse (value h) otherwise."""
    if k < l or l < 1:
        raise ValueError("tate_blueshift requires k >= l >= 1")
    if h is INF or h < 1:
        raise ValueError("tate_blueshift requires finite h >= 1")
    if k > l and ppp_exists(p, k, l):
        return 1
    return h


def geometric_blueshift(p: int, k: int, l: int) -> NatInfinity:
    """Minimal height gap for containment between layer-k and layer-l
    points; independent of the ambient height.  Requires p-1 | k-l >= 0."""
    if k < l or l < 1:
        raise ValueError("geometric_blueshift requires k >= l >= 1")
    if (k - l) % (p - 1) != 0:
        raise ValueError(
            f"geometric_blueshift requires p-1 | k-l, got p={p}, k-l={k - l}"
        )
    return delta_p(p, k, l)


def generator_support(trunc: SpectrumTruncation, k: int) -> frozenset:
    """Support of the k-th compact generator inside the truncation: all
    points of layer at least k.  The support is specialization-closed;
    its complement is the open image of the degree-(k-1) window."""
    if not 1 <= k <= trunc.d:
        raise ValueError(f"generator index {k} out of range 1..{trunc.d}")
    return frozenset(pt for pt in trunc.points if pt.layer >= k)


def open_embedding_check(
    m: int,
    d: int,
    primes: list[int] | tuple[int, ...],
    hmax: int,
    include_infinity: bool = True,
) -> bool:
    """Whether relabelling (k, p, h) identifies the degree-m truncation
    with an open, order-embedded piece of the degree-d truncation whose
    complement is the support of the generators above layer m."""
    if not 1 <= m <= d:
        raise ValueError("need 1 <= m <= d")
    small = b_truncation(m, primes, hmax, include_infinity)
    big = b_truncation(d, primes, hmax, include_infinity)
    image = set()
    for a in small.points:
        if a not in big:
            return False
        image.add(a)
    for a in small.points:
        for b in small.points:
            if small.leq(a, b) != big.leq(a, b):
                return False
    if m == d:
        expected = set(big.points)
    else:
        expected = set(big.points) - generator_support(big, m + 1)
    return image == expected


def smith_holds(
    d: int,
    p: int,
    k: int,
    l: int,
    n: NatInfinity,
    h: NatInfinity,
) -> bool:
    """Conditional-vanishing comparison between the layer-k derivative at
    height n and the layer-l derivative at height h: holds iff the
    (k, p, n+1) point is contained in the (l, p, h+1) point.  The
    equivalent dimension-inequality statement has the same answer."""
    check_window(d, (p,))
    if not (1 <= k <= d and 1 <= l <= d):
        raise ValueError("layers out of range")
    for value in (n, h):
        if value is not INF and value < 0:
            raise ValueError("heights must be >= 0")
    a = balmer_prime(d, k, p, INF if n is INF else n + 1)
    b = balmer_prime(d, l, p, INF if h is INF else h + 1)
    return b_leq(a, b)
