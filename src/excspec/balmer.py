"""The spectrum of prime thick tensor-ideals over the degree-d window,
modelled as a finite poset of points (layer, char, height).

Height 1 is the rational point and is independent of the characteristic,
so every point stores char 0 there; at heights above 1 the char is a
genuine prime.  Containment between points is decided by three numeric
conditions: divisibility of the layer gap by p-1, a height gap of at
least the blueshift distance delta_p, and char agreement above height 1.
The first two are one test, since delta_p is infinite exactly when p-1
does not divide the gap.

Truncations materialize the finitely many points with height at most
Hmax (plus, optionally, the height-infinity points, which Thomason
bookkeeping must treat specially) together with the containment order,
stored as each point's up-set bitset.  The points of one layer and one
prime form a column, a chain in height (k,p,INF) <= ... <= (k,p,2) <=
(k,0,1).  A point of column (k, p) lies only under points of the
columns (l, p) with l in `layer_class(p, k)`, and its up-set meets
each such column in a top segment, so the builder finds each segment
by bisection with `b_leq` instead of sweeping every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import (
    INF, NatInfinity, check_height, check_layer, check_window, delta_p, is_prime,
    layer_class,
)
from .poset import Poset, check_point_budget
from .zariski import ZariskiPrime

__all__ = [
    "BalmerPrime",
    "balmer_prime",
    "SpectrumTruncation",
    "b_leq",
    "b_truncation",
    "rho",
    "tate_blueshift",
    "geometric_blueshift",
    "generator_support",
    "open_embedding_check",
    "smith_points",
    "smith_holds",
]


@dataclass(frozen=True)
class BalmerPrime:
    """A prime thick tensor-ideal: layer k, characteristic p, chromatic
    height h >= 1 (possibly infinity).  Canonical by construction: a
    height-1 point takes char 0, the char is kept above."""

    layer: int
    char: int
    height: NatInfinity

    def __post_init__(self):
        if self.height == 1:
            object.__setattr__(self, "char", 0)


def balmer_prime(d: int, layer: int, char: int, height: NatInfinity) -> BalmerPrime:
    """Validated point for the degree-d window: the height is an int
    >= 1 (not a bool) or INF."""
    check_layer(d, layer)
    check_height("height", height, 1, infinite=True)
    if not (is_prime(char) or char == 0 and height == 1):
        raise ValueError(f"char must be prime, or 0 at height 1, got {char}")
    return BalmerPrime(layer, char, height)


def b_leq(a: BalmerPrime, b: BalmerPrime) -> bool:
    """Ideal containment a <= b.

    Writing a = (k, p, h') and b = (l, q, h): true iff p-1 | k-l >= 0,
    h' >= h + delta_p(k, l), and p = q whenever h > 1.  A height-1
    source lies under no other point: 1 >= h + delta_p(k, l) forces
    h = 1 and k = l, which is equality.  Equal points above height 1
    pass the delta test with delta = 0.
    """
    if a.layer < b.layer:
        return False
    if a.height == 1:
        return a == b
    delta = delta_p(a.char, a.layer, b.layer)
    return (
        delta != INF
        and a.height >= b.height + delta
        and (b.height == 1 or a.char == b.char)
    )


@dataclass(frozen=True)
class SpectrumTruncation(Poset):
    """All canonical points of the degree-d spectrum with height in
    {1..hmax} (plus infinity when flagged) over a finite prime set,
    together with the containment order as up-set bitsets."""

    d: int
    primes: tuple[int, ...]
    hmax: int
    include_infinity: bool


def b_truncation(
    d: int,
    primes: list[int] | tuple[int, ...],
    hmax: int,
    include_infinity: bool = True,
) -> SpectrumTruncation:
    """Materialize the finite truncated spectrum and its full order.

    Points come layer by layer: the rational point (k, 0, 1), then for
    each prime p its column (k, p, 2..hmax), with (k, p, INF) last when
    flagged.  A rational point lies under no other point.  For a point a
    of column (k, p) and each layer l of `layer_class(p, k)`, one
    `b_leq` call decides (l, 0, 1) and, when a lies under it, bisection
    with `b_leq` finds the top segment of column (l, p) above a; by
    `b_leq`'s definition no other point lies above a.  The point count
    is checked against the budget before any point is made."""
    check_height("hmax", hmax, 1)
    prime_tuple = check_window(d, primes)
    tail = (INF,) if include_infinity else ()
    depth = hmax - 1 + len(tail)  # points per column
    check_point_budget(d * (1 + len(prime_tuple) * depth))
    heights = (*range(2, hmax + 1), *tail)
    points, columns = [], {}  # (k, p) -> (rational index, column start)
    for k in range(1, d + 1):
        rational = len(points)
        points.append(BalmerPrime(k, 0, 1))
        for p in prime_tuple:
            columns[k, p] = (rational, len(points))
            points.extend(BalmerPrime(k, p, h) for h in heights)
    above = [0] * len(points)
    for (k, p), (_, start) in columns.items():
        reachable = [columns[l, p] for l in layer_class(p, k)]
        for i in range(start, start + depth):
            a, up = points[i], 0
            for rational, top in reachable:
                if not b_leq(a, points[rational]):
                    continue
                lo, hi = top, top + depth  # bisect for the first miss
                while lo < hi:
                    mid = (lo + hi) // 2
                    if b_leq(a, points[mid]):
                        lo = mid + 1
                    else:
                        hi = mid
                up |= 1 << rational | (1 << lo) - (1 << top)
            above[i] = up & ~(1 << i)
    return SpectrumTruncation(
        points=tuple(points),
        above=tuple(above),
        d=d,
        primes=prime_tuple,
        hmax=hmax,
        include_infinity=include_infinity,
    )


def rho(a: BalmerPrime) -> ZariskiPrime:
    """Comparison map to the prime-ideal spectrum of the Burnside ring:
    height 1 lands on the char-0 layer point, higher heights on the
    glued char-p point."""
    return ZariskiPrime(a.layer, a.char)


def tate_blueshift(p: int, k: int, l: int, h: int) -> NatInfinity:
    """Height drop of the layer-l derivative of the layer-k Tate
    construction applied at input height h: a shift of exactly 1 when a
    p-power partition of k of length l exists with k > l, and total
    collapse (value h) otherwise."""
    if k < l or l < 1:
        raise ValueError("tate_blueshift requires k >= l >= 1")
    check_height("h", h, 1)
    return 1 if delta_p(p, k, l) == 1 else h


def geometric_blueshift(p: int, k: int, l: int) -> NatInfinity:
    """Minimal height gap for containment between layer-k and layer-l
    points; independent of the ambient height.  Requires p-1 | k-l >= 0."""
    if k < l or l < 1:
        raise ValueError("geometric_blueshift requires k >= l >= 1")
    delta = delta_p(p, k, l)
    if delta == INF:
        raise ValueError(
            f"geometric_blueshift requires p-1 | k-l, got p={p}, k-l={k - l}"
        )
    return delta


def generator_support(trunc: SpectrumTruncation, k: int) -> frozenset:
    """Support of the k-th compact generator inside the truncation: all
    points of layer at least k.  The support is specialization-closed;
    its complement is the open image of the degree-(k-1) window."""
    check_layer(trunc.d, k)
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
    complement is the support of the generators above layer m.

    `b_truncation` lists its points layer by layer, so the check is a
    prefix test: the degree-m points and up-sets begin the degree-d
    ones, and every later point has layer above m."""
    if not 1 <= m <= d:
        raise ValueError("need 1 <= m <= d")
    small = b_truncation(m, primes, hmax, include_infinity)
    big = b_truncation(d, primes, hmax, include_infinity)
    n = len(small.points)
    return (
        big.points[:n] == small.points
        and big.above[:n] == small.above
        and all(a.layer > m for a in big.points[n:])
    )


def smith_points(
    d: int, p: int, k: int, l: int, n: NatInfinity, h: NatInfinity
) -> tuple[BalmerPrime, BalmerPrime]:
    """The validated points (k, p, n+1) and (l, p, h+1) of the
    conditional-vanishing comparison between the layer-k derivative at
    height n and the layer-l derivative at height h; n and h are each
    an int >= 0 or INF."""
    check_window(d, (p,))
    check_height("height", n, 0, infinite=True)
    check_height("height", h, 0, infinite=True)
    return balmer_prime(d, k, p, n + 1), balmer_prime(d, l, p, h + 1)


def smith_holds(d: int, p: int, k: int, l: int, n: NatInfinity, h: NatInfinity) -> bool:
    """Conditional-vanishing comparison: holds iff the first of the
    `smith_points` is contained in the second.  The equivalent
    dimension-inequality statement has the same answer."""
    return b_leq(*smith_points(d, p, k, l, n, h))
